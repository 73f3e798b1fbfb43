//go:build !ncastpoison

package transport

// poisonReleased is false in normal builds: Frame.Release recycles the
// buffer without touching it.
const poisonReleased = false
