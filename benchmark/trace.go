package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// counted as dropped, not recorded.
const maxSpans = 1 << 20

// span is one timed call from the benchmark into a layer's public API.
// Times are nanoseconds since the tracer's epoch. Req groups the spans of
// one request or traversal; Parent is the id of the span that caused this
// one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op, so workload code calls it
// unconditionally and the untraced run pays one nil check per call site.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 1, 1<<14)} // id 0 is "no span"
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 when untraced or full).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds an already-timed span (for intervals stamped on another
// goroutine or carried through a job argument).
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans[1:] {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children are counted
// once).
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfByName collects the self times of every span called name, in the
// given unit.
func selfByName(spans []span, self map[int32]int64, name string, unit time.Duration) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out.add(float64(self[s.ID]) / float64(unit))
		}
	}
	return out
}

// layerSelf sums self time per layer (the span name's prefix up to the
// first '.').
func layerSelf(spans []span, self map[int32]int64) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans stores spans as JSON lines in path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
