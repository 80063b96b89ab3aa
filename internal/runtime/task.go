// Package runtime is the in-process execution core: the task and
// lifecycle-event vocabulary (§5.4–5.5's CreateTask model) and a
// compiled task program — built once, either by Builder, which
// resolves the depend(in/out) addresses and funcCount serial keys of a
// general task stream, or straight from codegen's blocks as chains,
// one per statement — whose executor keeps one progress counter per
// chain and has each task wait on (chain, position) pairs. Nothing is
// resolved while a program runs.
package runtime

import "time"

// NoSerial disables per-nest serialization for a task.
const NoSerial = -1

// Task describes one unit of work and its dependency interface, the Go
// analogue of the CreateTask signature in Figure 7.
type Task struct {
	// Fn is the task body.
	Fn func()
	// Label identifies the task in traces ("S[3, 8]").
	Label string
	// Out is the dependency address this task writes, or a negative
	// value for none.
	Out int
	// In lists the dependency addresses whose last writers must
	// complete before this task may start.
	In []int
	// Serial, when >= 0, serializes this task after the previously
	// created task with the same Serial key (the funcCount mechanism).
	Serial int
}

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

// Start reports whether this is a start event (legacy accessor; switch
// on Kind for the full transition set).
func (e Event) Start() bool { return e.Kind == EventStart }
