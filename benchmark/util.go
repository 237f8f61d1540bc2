package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sourceDigest hashes the program's Go sources under internal/, so a run
// outside a git repository still names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// machineTicks returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it cannot be read). Steal is time the
// hypervisor ran someone else on this machine's vCPUs.
func machineTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (-1 for none).
type span struct {
	Op     uint64 `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp uint64
}

// maxSpans bounds the log's memory; later spans are dropped.
const maxSpans = 1 << 20

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// root opens the first span of a new operation and returns the
// operation's id and the span's ID, the parent of the operation's other
// spans.
func (l *spanLog) root(name string) (op uint64, id int32) {
	if l == nil {
		return 0, -1
	}
	l.mu.Lock()
	l.nextOp++
	op = l.nextOp
	l.mu.Unlock()
	return op, l.begin(op, -1, name)
}

// begin opens a span and returns its ID (-1 when not recorded).
func (l *spanLog) begin(op uint64, parent int32, name string) int32 {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the count and mean self time:
// the span's duration minus the part its child spans cover.
func (l *spanLog) printSelfTimes(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n    int
		self int64
	}
	by := map[string]*agg{}
	for i, s := range l.spans {
		if s.End < 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.self += s.End - s.Start - child[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "span %-28s n=%-8d self_us_mean=%.3f\n", n, a.n, float64(a.self)/float64(a.n)/1e3)
	}
}
