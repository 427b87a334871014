package engine

// WithKeyframe sets the checkpoint layer's full-clone interval for engine
// tests: 1 makes every snapshot a full detector clone, the reference the
// delta checkpoints must reproduce.
func WithKeyframe(o Options, k int) Options {
	o.keyframe = k
	return o
}
