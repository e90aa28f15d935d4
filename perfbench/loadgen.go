package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind is a request path of the serving daemon.
type kind int

const (
	kSingle kind = iota
	kBatch
	kFleet
	kIngest
	numKinds
)

var (
	kindName = [numKinds]string{"single", "batch", "fleet", "ingest"}
	kindPath = [numKinds]string{"/v1/score", "/v1/score/batch", "/v1/score/fleet", "/v1/ingest"}
)

// Generator-health bounds: a rung whose sends left later than this
// after their due time measures the generator, not the daemon, and the
// run is invalid.
const (
	maxLagP50 = 2 * time.Millisecond
	maxLagMax = time.Second
)

// job is one scheduled request of an open-loop schedule.
type job struct {
	due  time.Duration // offset from the schedule's start
	kind kind
	tag  int // index of the input in the workload's pool for this kind
	body []byte
}

// reply is the outcome of one job.
type reply struct {
	sent   bool          // false when the schedule was cut before the job
	lat    time.Duration // completion minus due time
	lag    time.Duration // how late the generator sent it when a connection was free
	end    time.Duration // completion, as an offset from the schedule's start
	status int           // HTTP status; 0 means a transport failure
	body   []byte
}

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

// generator sends schedules over a fixed set of connections, one
// client (and so one connection) per worker.
type generator struct {
	base    string
	clients []*http.Client
	tr      *tracer
	nextReq atomic.Int64
}

func newGenerator(base string, conns int) *generator {
	g := &generator{base: base}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends every job at its due time (open loop): a job waits only for
// a free connection, and its latency counts from its due time, so a
// stall is charged to every request it delays. With cut > 0, no job is
// sent once cut has passed since the start; the rest stay unsent.
func (g *generator) run(jobs []job, cut time.Duration) []reply {
	out := make([]reply, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				picked := time.Since(start)
				if cut > 0 && picked >= cut {
					return
				}
				if wait := j.due - picked; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				req := g.nextReq.Add(1)
				id := g.tr.open("client."+kindName[j.kind], 0, req)
				status, body := g.post(c, kindPath[j.kind], j.body)
				g.tr.end(id)
				end := time.Since(start)
				out[i] = reply{sent: true, lat: end - j.due, lag: sent - max(j.due, picked), end: end, status: status, body: body}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (g *generator) post(c *http.Client, path string, body []byte) (int, []byte) {
	resp, err := c.Post(g.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// get performs one GET on the first connection and returns status and
// body.
func (g *generator) get(path string) (int, []byte, error) {
	resp, err := g.clients[0].Get(g.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// poisson returns the arrivals of a Poisson process of the given rate
// over dur, conditioned on its expected count: rate*dur arrival times
// drawn uniformly and sorted. Each path gets its share of the mix
// weights, rounded, in random order; the first path takes what rounding
// leaves. Fixing the count and the shares keeps the offered rate and
// the mix exact, so a rung's achieved rate measures the daemon rather
// than the draw.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, mix [numKinds]float64) []job {
	var total float64
	for _, w := range mix {
		total += w
	}
	n := int(math.Round(rate * dur.Seconds()))
	jobs := make([]job, n)
	i := 0
	for k := numKinds - 1; k > 0; k-- {
		for c := int(math.Round(float64(n) * mix[k] / total)); c > 0 && i < n; c-- {
			jobs[i].kind = k
			i++
		}
	}
	rng.Shuffle(n, func(a, b int) { jobs[a].kind, jobs[b].kind = jobs[b].kind, jobs[a].kind })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	for i := range jobs {
		jobs[i].due = due[i]
	}
	return jobs
}

// pathStats are one path's counts and accepted latencies on a rung.
type pathStats struct {
	Sent, OK, Failed int
	Lat              []float64 // ascending ms, accepted (2xx) requests only
}

// rungResult is one fixed-rate step of the ladder.
type rungResult struct {
	Rate     float64
	Dur      time.Duration
	Paths    [numKinds]pathStats
	LagP50   time.Duration
	LagMax   time.Duration
	Drain    time.Duration // last completion minus last due time
	Achieved float64       // accepted requests per second until the last reply
}

// summarize folds a rung's replies into per-path statistics.
func summarize(rate float64, dur time.Duration, jobs []job, replies []reply) rungResult {
	r := rungResult{Rate: rate, Dur: dur}
	lat := make([][]time.Duration, numKinds)
	lags := make([]float64, 0, len(replies))
	var lastDue, lastEnd time.Duration
	ok := 0
	for i, rep := range replies {
		if !rep.sent {
			continue
		}
		p := &r.Paths[jobs[i].kind]
		p.Sent++
		if rep.ok() {
			p.OK++
			ok++
			lat[jobs[i].kind] = append(lat[jobs[i].kind], rep.lat)
		} else {
			p.Failed++
		}
		lags = append(lags, float64(rep.lag))
		lastDue = max(lastDue, jobs[i].due)
		lastEnd = max(lastEnd, rep.end)
	}
	for k := range r.Paths {
		r.Paths[k].Lat = sortedMs(lat[k])
	}
	sort.Float64s(lags)
	if len(lags) > 0 {
		r.LagP50 = time.Duration(percentile(lags, 0.5))
		r.LagMax = time.Duration(lags[len(lags)-1])
	}
	r.Drain = max(lastEnd-lastDue, 0)
	if lastEnd > 0 {
		r.Achieved = float64(ok) / lastEnd.Seconds()
	}
	return r
}

// failed counts every request of the rung answered outside 2xx or lost
// in transport.
func (r rungResult) failed() int {
	n := 0
	for _, p := range r.Paths {
		n += p.Failed
	}
	return n
}

func (r rungResult) sent() int {
	n := 0
	for _, p := range r.Paths {
		n += p.Sent
	}
	return n
}

// passes reports whether the rung meets the workload's latency limit
// on the single path's tail, lost no request, and kept up with the
// offered rate: the schedule drained within the limit of its last due
// time instead of leaving a growing backlog.
func (r rungResult) passes(limitMs float64) bool {
	t := tail(r.Paths[kSingle].Lat)
	return t.OK && t.Value <= limitMs && r.failed() == 0 && float64(r.Drain)/float64(time.Millisecond) <= limitMs
}

// healthy reports whether the generator kept to its schedule.
func (r rungResult) healthy() bool { return r.LagP50 <= maxLagP50 && r.LagMax <= maxLagMax }

// sloRung returns the index of the highest rung of an ascending ladder
// that passes together with every rung below it, or -1 when the lowest
// rung fails.
func sloRung(pass []bool) int {
	best := -1
	for i, p := range pass {
		if !p {
			break
		}
		best = i
	}
	return best
}

// describe prints the rung's achieved rate, drain and generator lag,
// then each path's counts and accepted latencies.
func (r rungResult) describe() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "achieved %.1f req/s; drain %.2f ms; generator lag p50 %v max %v\n",
		r.Achieved, float64(r.Drain)/1e6, r.LagP50.Round(time.Microsecond), r.LagMax.Round(time.Microsecond))
	for k, p := range r.Paths {
		if p.Sent == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-6s sent %d ok %d failed %d; p50 %.3f ms; tail %s\n",
			kindName[k], p.Sent, p.OK, p.Failed, percentile(p.Lat, 0.5), tail(p.Lat))
	}
	return b.String()
}
