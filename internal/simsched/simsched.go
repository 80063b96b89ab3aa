// Package simsched is a deterministic virtual-time scheduler
// simulator. It reproduces the paper's multi-core measurements on
// hosts without multiple cores: per-task costs are measured once
// during a sequential replay of the real task program (which visits
// tasks in a valid topological order), and the makespan of a
// P-processor greedy list schedule over the real dependency DAG is
// then computed in virtual time.
//
// The simulated executions use exactly the task graphs the chain
// executor runs — the same blocks, dependency edges, and per-nest
// serialization — so who-wins comparisons and crossover
// points match what a real multi-core run observes, without wall-clock
// nondeterminism.
package simsched

import (
	"container/heap"
	"fmt"
	"time"
)

// Task is one simulated task: its cost and the IDs of the tasks it
// must wait for. IDs index the task slice and every dependency must
// point to an earlier task.
type Task struct {
	Cost time.Duration
	Deps []int
}

// Schedule is the result of a simulation.
type Schedule struct {
	Makespan time.Duration
	// Start and Finish give each task's scheduled interval.
	Start, Finish []time.Duration
	// Busy is the total work (Σ costs).
	Busy time.Duration
}

// Speedup returns Busy/Makespan, the simulated speed-up over the
// sequential execution of the same work.
func (s Schedule) Speedup() float64 {
	if s.Makespan == 0 {
		return 1
	}
	return float64(s.Busy) / float64(s.Makespan)
}

// List computes a greedy list schedule of tasks on procs identical
// processors: tasks become ready when all dependencies finished, and
// the earliest-ready task (ties by creation order) is placed on the
// earliest-free processor. The schedule is deterministic.
func List(tasks []Task, procs int) Schedule {
	if procs < 1 {
		panic(fmt.Sprintf("simsched: procs = %d", procs))
	}
	n := len(tasks)
	sch := Schedule{
		Start:  make([]time.Duration, n),
		Finish: make([]time.Duration, n),
	}
	remaining := make([]int, n)
	succs := make([][]int, n)
	readyAt := make([]time.Duration, n)
	ready := &taskHeap{}
	for id, t := range tasks {
		sch.Busy += t.Cost
		remaining[id] = 0
		seen := map[int]bool{}
		for _, d := range t.Deps {
			if d < 0 || d >= id {
				panic(fmt.Sprintf("simsched: task %d depends on invalid task %d", id, d))
			}
			if !seen[d] {
				seen[d] = true
				succs[d] = append(succs[d], id)
				remaining[id]++
			}
		}
		if remaining[id] == 0 {
			heap.Push(ready, readyItem{at: 0, id: id})
		}
	}

	procHeap := &durHeap{}
	for p := 0; p < procs; p++ {
		heap.Push(procHeap, time.Duration(0))
	}

	scheduled := 0
	for ready.Len() > 0 {
		item := heap.Pop(ready).(readyItem)
		procFree := heap.Pop(procHeap).(time.Duration)
		start := item.at
		if procFree > start {
			start = procFree
		}
		finish := start + tasks[item.id].Cost
		sch.Start[item.id] = start
		sch.Finish[item.id] = finish
		if finish > sch.Makespan {
			sch.Makespan = finish
		}
		heap.Push(procHeap, finish)
		scheduled++
		for _, s := range succs[item.id] {
			if finish > readyAt[s] {
				readyAt[s] = finish
			}
			remaining[s]--
			if remaining[s] == 0 {
				heap.Push(ready, readyItem{at: readyAt[s], id: s})
			}
		}
	}
	if scheduled != n {
		panic(fmt.Sprintf("simsched: scheduled %d of %d tasks (dependency cycle?)", scheduled, n))
	}
	return sch
}

type readyItem struct {
	at time.Duration
	id int
}

type taskHeap []readyItem

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(readyItem)) }
func (h *taskHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

type durHeap []time.Duration

func (h durHeap) Len() int           { return len(h) }
func (h durHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h durHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *durHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *durHeap) Pop() (x any)      { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }
