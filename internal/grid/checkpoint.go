package grid

import "raxml/internal/gridjob"

// BootstrapCheckpoint is the replicate-boundary state of one bootstrap
// batch job, as the grid's checkpoint store holds it (see
// gridjob.Checkpoint).
type BootstrapCheckpoint = gridjob.Checkpoint

// DecodeBootstrapCheckpoint parses a checkpoint produced by Encode.
func DecodeBootstrapCheckpoint(b []byte) (*BootstrapCheckpoint, error) {
	return gridjob.DecodeCheckpoint(b)
}
