package ether

// PoisonNewPools is the lifetime oracle's switch: every pool created
// while it is on overwrites each frame returned to it with poisonByte.
// The layers built on such a pool poison what they reuse themselves
// through it (FramePool.Scrub, FramePool.ShiftFrames): the engine's INIT
// chunk and blob buffers, TCP's reorder free list, the vacated tails of
// the RLL and Rether frame FIFOs. A buffer recycled while something
// still reads it then shows up as different output; a run that recycles
// correctly is byte-identical with the switch on and off. Tests that
// turn it on turn it off again and do not run in parallel.
func PoisonNewPools(on bool) { poisonNewPools = on }
