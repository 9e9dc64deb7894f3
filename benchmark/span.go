package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the harness wraps the layer's public function. parent is the
// index of the span that caused it (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Step    int    `json:"step"`
	Worker  int    `json:"worker"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory; they are written once, at exit.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, rep, step, worker int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: rep, Step: step, Worker: worker,
		StartNS: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].EndNS = int64(time.Since(r.epoch)) }

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover. Overlapping children are counted
// once and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		covered := s.StartNS // everything before this instant is accounted
		for _, k := range ks {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < covered {
				lo = covered
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTotal is the self time and call count of every span of one name.
type spanTotal struct {
	selfNS int64
	calls  int
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.selfNS += self[i]
		t.calls++
		out[s.Name] = t
	}
	return out
}
