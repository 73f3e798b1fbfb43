//go:build ncastpoison

package transport

// poisonReleased makes Frame.Release overwrite each released buffer with
// PoisonByte, so a use after release shows up as corrupt data in tests.
const poisonReleased = true
