// Package runtime is the in-process execution core: the task
// lifecycle-event vocabulary and a compiled task program laid out as
// chains, one per statement. A program is built once, by
// ChainSpec.Build, from the chain columns codegen computes at compile
// time: the paper's tasking layer resolves depend(in/out) addresses
// and funcCount serial keys while tasks are created (§5.4–5.5); here
// every task already names its predecessors as (chain, position)
// pairs, and the executor keeps one progress counter per chain.
// Nothing is resolved while a program runs.
package runtime

import "time"

// EventKind is a task lifecycle transition.
type EventKind uint8

const (
	// EventSubmit: the task was created (program order).
	EventSubmit EventKind = iota + 1
	// EventReady: the task's last predecessor finished. The gap from
	// Ready to Start is the task's stall.
	EventReady
	// EventStart: a worker began executing the task body.
	EventStart
	// EventEnd: the task body completed.
	EventEnd
)

// String names the transition.
func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventReady:
		return "ready"
	case EventStart:
		return "start"
	case EventEnd:
		return "end"
	}
	return "unknown"
}

// Event records a task lifecycle transition for tracing.
type Event struct {
	Kind   EventKind
	TaskID int
	Label  string
	Serial int
	Worker int // worker index for Start/End events, -1 otherwise
	When   time.Time
}
