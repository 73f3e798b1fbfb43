//go:build !amd64 || purego

package gf

// flushFused is never selected on platforms without a fused kernel
// (fused256 stays false); it falls back to the per-row loop.
func (d *Dot) flushFused() { d.flushEach() }
