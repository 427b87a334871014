package engine

// WithKeyframe sets the checkpoint layer's full-clone interval for engine
// tests: 1 makes every snapshot a full detector clone, the reference the
// delta checkpoints must reproduce.
func WithKeyframe(o Options, k int) Options {
	o.keyframe = k
	return o
}

// SetPoisonShells switches shell poisoning (poisonShells) for engine tests
// and returns a function restoring the previous setting. Not safe to flip
// while a Run is in flight.
func SetPoisonShells(on bool) (restore func()) {
	prev := poisonShells
	poisonShells = on
	return func() { poisonShells = prev }
}
