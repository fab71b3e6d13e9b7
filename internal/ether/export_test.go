package ether

// PoisonNewPools is the lifetime oracle's switch: every pool created
// while it is on overwrites each frame returned to it with poisonByte.
// A frame recycled while something still reads it then shows up as
// different output; a run that recycles correctly is byte-identical
// with the switch on and off. Tests that turn it on turn it off again
// and do not run in parallel.
func PoisonNewPools(on bool) { poisonNewPools = on }
