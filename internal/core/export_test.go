package core

import "phish/internal/wire"

// RaceEnabled lets the external test package see whether the race detector
// is on.
const RaceEnabled = raceEnabled

// CkptTable is the worker's checkpoint publication table — what its next
// StatReport would carry.
func (w *Worker) CkptTable() []wire.TaskCkpt { return w.ckptSnapshot() }
