package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// samples collects exact durations (or other values) for order statistics.
// Nothing is bucketed: every observation is kept, so a change of any size
// shows in the quantiles.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks (the "type 7" estimator of R and NumPy). It
// returns NaN for an empty set.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// tail is a tail summary: the value with exactly tailBeyond samples above
// it, the percentile that value sits at, and the sample count.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// tailOf returns the highest percentile that has at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest sample, at percentile
// 100*(n-tailBeyond)/n. With fewer than 2*tailBeyond samples that
// percentile would lie below the median, so it is no tail; the maximum is
// returned at percentile 100, and the sample count says how little it
// rests on.
func tailOf(s samples) tail {
	n := len(s)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	c := s.sorted()
	if n < 2*tailBeyond {
		return tail{Value: c[n-1], Percentile: 100, N: n}
	}
	return tail{Value: c[n-1-tailBeyond], Percentile: 100 * float64(n-tailBeyond) / float64(n), N: n}
}

// spread summarizes a set of paired estimates: their median and the
// distance between the first and third quartiles.
type spread struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Pairs  int     `json:"pairs"`
}

// pairedOverheadPct estimates how much slower variant is than base, in
// percent, from pairs whose order alternates: even pairs run base first,
// odd pairs run variant first. A fixed order can phase-lock onto the
// garbage collector's cycle and charge one side for the other's garbage;
// alternating cancels that drift. Each measure call returns the time of
// one unit of work.
func pairedOverheadPct(pairs int, base, variant func() (time.Duration, error)) (spread, error) {
	var ratios samples
	for i := 0; i < pairs; i++ {
		var b, v time.Duration
		var err error
		if i%2 == 0 {
			if b, err = base(); err == nil {
				v, err = variant()
			}
		} else {
			if v, err = variant(); err == nil {
				b, err = base()
			}
		}
		if err != nil {
			return spread{}, err
		}
		if b <= 0 {
			return spread{}, fmt.Errorf("paired overhead: base unit took %v", b)
		}
		ratios.add(100 * float64(v-b) / float64(b))
	}
	c := ratios.sorted()
	return spread{Median: quantile(c, 0.5), IQR: quantile(c, 0.75) - quantile(c, 0.25), Pairs: pairs}, nil
}

// schedule is an open-loop arrival schedule: jobs arrive perTick at a
// time, one group every tick, whether or not earlier jobs have completed.
// Grouping arrivals on a tick of about a millisecond matches the
// resolution at which a sleeping generator can wake up on a loaded host;
// finer due times would charge the generator's wake-up slack to every job.
type schedule struct {
	start   time.Time
	tick    time.Duration
	perTick int
}

// newSchedule returns a schedule of rate jobs per second starting at
// start, on a 1 ms tick (coarser when the rate is below 1000/s).
func newSchedule(start time.Time, rate int) schedule {
	tick := time.Millisecond
	per := rate / 1000
	if per < 1 {
		per, tick = 1, time.Second/time.Duration(rate)
	}
	return schedule{start: start, tick: tick, perTick: per}
}

// due returns when job i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i/s.perTick) * s.tick)
}

// rate returns the schedule's jobs per second.
func (s schedule) rate() float64 { return float64(s.perTick) / s.tick.Seconds() }

// lateness accounts for one open-loop job: how late the generator sent it
// relative to its due time, and its latency measured from the due time,
// so a generator or system stall is charged to every job it delayed.
func lateness(due, sent, done time.Time) (late, latency time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return late, done.Sub(due)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether a metric name is made only of letters,
// digits, '_', '.' and '-', and starts with a letter or digit.
func validName(name string) bool {
	if !metricName.MatchString(name) || len(name) > 64 {
		return false
	}
	c := name[0]
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
