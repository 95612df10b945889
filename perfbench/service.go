package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/ccpsl"
	"repro/internal/compile"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/serve"
	"repro/internal/symbolic"
)

// service is ccserved's handler on a loopback listener. Phase A sweeps the
// protocol catalog and its mutants through POST /v1/verify/batch, once per
// engine, with the cache bypassed; phase B sends single POST
// /v1/verify?wait=1 requests at seeded Poisson arrival times, about 90% of
// them for keys phase A cached (hits) and the rest with no_cache (misses).
type service struct {
	e      *env
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	jobs   []svcJob
	rng    *rand.Rand

	// passSched is the open-loop segment of every pass, drawn once so the
	// untraced and traced passes replay the same arrivals.
	passSched []arrival
	// The traced pass's sweep walls and open-loop dispositions.
	lastSweeps [2]float64
	lastLoad   *loadResult
}

// svcJob is one verification the sweeps run and phase B asks for.
type svcJob struct {
	name      string
	library   string // catalog name of a library protocol; "" for a mutant (inline spec)
	proto     *fsm.Protocol
	canonical string
	opts      serve.JobOptions
	key       string
	body      []byte // POST /v1/verify body of a hit
	missBody  []byte // the same with no_cache
}

// The two sweep configurations of phase A: symbolic, and strict
// enumeration at n=4. The options are written in their normalized form, so
// serve.CacheKey gives the key the server derives.
var sweepOpts = [2]serve.JobOptions{
	{Engine: serve.EngineSymbolic, Workers: 1},
	{Engine: serve.EngineEnumStrict, N: 4, Workers: 1},
}

// digestsFile lists the SHA-256 of every report the sweeps produce, by
// cache key: reports are byte-identical across runs and versions.
//
//go:embed digests.txt
var digestsFile string

// illinoisSymbolic pins the paper's figures in the Illinois symbolic
// report: essential states and state visits.
var illinoisSymbolic = counts{5, 23}

// serviceJobs expands the sweep the way the server does: the named catalog
// protocols (all when empty) in sorted order, each followed by its
// mutants, once per sweep configuration.
func serviceJobs(names []string) ([]svcJob, error) {
	if len(names) == 0 {
		names = protocols.Names()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	var protos []*fsm.Protocol
	var library []string
	for _, name := range names {
		p, err := protocols.ByName(name)
		if err != nil {
			return nil, err
		}
		protos = append(protos, p)
		library = append(library, name)
		for _, m := range mutate.Catalog(p) {
			if m.NeedsStrict {
				continue
			}
			m.Protocol.Name = strings.ReplaceAll(m.Protocol.Name, "!", "-")
			protos = append(protos, m.Protocol)
			library = append(library, "")
		}
	}
	var jobs []svcJob
	for _, opts := range sweepOpts {
		for i, p := range protos {
			canonical := ccpsl.Format(p)
			j := svcJob{
				name: p.Name, library: library[i], proto: p, canonical: canonical,
				opts: opts, key: serve.CacheKey(canonical, opts),
			}
			req := map[string]any{"engine": opts.Engine}
			if opts.N > 0 {
				req["n"] = opts.N
			}
			if j.library != "" {
				req["protocol"] = j.library
			} else {
				req["spec"] = canonical
			}
			j.body, _ = json.Marshal(req)
			req["no_cache"] = true
			j.missBody, _ = json.Marshal(req)
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// sweepBody is the POST /v1/verify/batch body of sweep i.
func sweepBody(i int, names []string, noCache bool) []byte {
	sw := map[string]any{"mutants": true, "engine": sweepOpts[i].Engine}
	if sweepOpts[i].N > 0 {
		sw["n"] = sweepOpts[i].N
	}
	if len(names) > 0 {
		sw["protocols"] = names
	}
	b, _ := json.Marshal(map[string]any{"sweep": sw, "no_cache": noCache})
	return b
}

func parseDigests() map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(digestsFile, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && !strings.HasPrefix(line, "#") {
			out[f[0]] = f[1]
		}
	}
	return out
}

var recordedDigests = parseDigests()

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func newService(e *env) (bench, error) {
	jobs, err := serviceJobs(e.size.sweep)
	if err != nil {
		return nil, err
	}
	s := &service{e: e, jobs: jobs, rng: e.rng("service")}
	if err := s.start(); err != nil {
		return nil, err
	}
	// Warm the cache with both sweeps, so phase B's hits find their keys.
	for i := range sweepOpts {
		if _, err := s.sweep(nil, i, false, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// start brings up the server on 127.0.0.1 with nproc workers and default
// settings otherwise.
func (s *service) start() error {
	srv, err := serve.New(serve.Config{Workers: s.e.nproc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Start()
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		// A run must end within minutes even if the service wedges.
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * s.e.nproc,
			DisableCompression:  true,
		},
	}
	return nil
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
}

// reportOK reports whether a report matches the recorded digest of its key.
func reportOK(key string, report []byte) bool {
	want, ok := recordedDigests[key]
	return ok && digest(report) == want
}

// sweep runs phase A's sweep i over HTTP and checks every line; it returns
// the sweep's wall time. With ref it also times a host reference run
// before the sweep, into ref.
func (s *service) sweep(tr *tracer, i int, noCache bool, ref *float64) (float64, error) {
	body := sweepBody(i, s.e.size.sweep, noCache)
	name := [2]string{"http.batch_symbolic", "http.batch_enum"}[i]
	var err error
	settle(tr)
	if ref != nil {
		*ref = s.e.hostRef()
	}
	wall := tr.timed(name, func() { err = s.sweepOnce(i, body) })
	return wall, err
}

func (s *service) sweepOnce(i int, body []byte) error {
	resp, err := s.client.Post(s.base+"/v1/verify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		s.e.ck.op(false, "batch request: %v", err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		s.e.ck.op(false, "batch request: HTTP %d: %s", resp.StatusCode, msg)
		return fmt.Errorf("batch request: HTTP %d", resp.StatusCode)
	}
	want := map[string]bool{}
	for _, j := range s.jobs {
		if j.opts == sweepOpts[i] {
			want[j.key] = true
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	seen := 0
	summary := false
	for sc.Scan() {
		var line struct {
			serve.BatchLine
			Summary bool `json:"summary"`
			Failed  int  `json:"failed"`
			Total   int  `json:"total"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			s.e.ck.op(false, "batch line: %v", err)
			continue
		}
		if line.Summary {
			summary = true
			s.e.ck.op(line.Failed == 0 && line.Total == len(want), "batch summary: %d failed of %d (want %d jobs)", line.Failed, line.Total, len(want))
			continue
		}
		seen++
		ok := line.State == serve.StateDone && want[line.CacheKey] && reportOK(line.CacheKey, line.Report)
		if !s.e.ck.op(ok, "batch job %s: state %s, disposition %s, error %q, report digest match %t",
			line.Protocol, line.State, line.Disposition, line.Error, reportOK(line.CacheKey, line.Report)) {
			continue
		}
		if line.Protocol == "Illinois" && i == 0 {
			var rep serve.Report
			json.Unmarshal(line.Report, &rep)
			s.e.ck.op(counts{rep.Essential, rep.Visits} == illinoisSymbolic,
				"Illinois symbolic: %d essential / %d visits, want %v", rep.Essential, rep.Visits, illinoisSymbolic)
		}
	}
	if err := sc.Err(); err != nil {
		s.e.ck.op(false, "batch stream: %v", err)
		return err
	}
	s.e.ck.op(summary && seen == len(want), "batch stream: %d job lines, summary %t, want %d", seen, summary, len(want))
	return nil
}

// arrival is one scheduled phase-B request.
type arrival struct {
	due  time.Duration // from the start of the phase
	job  int
	miss bool
}

// schedule draws n Poisson arrivals at the given rate; about one in ten
// bypasses the cache.
func schedule(rng *rand.Rand, n, jobs int, rate float64) []arrival {
	out := make([]arrival, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{
			due:  time.Duration(t * float64(time.Second)),
			job:  rng.Intn(jobs),
			miss: rng.Float64() < 0.1,
		}
	}
	return out
}

// loadResult is what phase B observed.
type loadResult struct {
	hit, miss    []float64 // latency from the due time, seconds
	late         []float64 // send time minus due time, seconds
	dispositions map[string]int
	failed       int
}

// openLoop sends the schedule from at most nproc concurrent clients; each
// request's latency runs from its due time, so a stall delays the ones
// behind it too.
func (s *service) openLoop(sched []arrival) *loadResult {
	res := &loadResult{dispositions: map[string]int{}}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(due).Seconds()
				disp, ok := s.single(a)
				lat := time.Since(due).Seconds()
				mu.Lock()
				res.late = append(res.late, late)
				res.dispositions[disp]++
				if !ok {
					res.failed++
				} else if a.miss {
					res.miss = append(res.miss, lat)
				} else {
					res.hit = append(res.hit, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// single sends one phase-B request and checks its report; it returns the
// X-CC-Disposition header.
func (s *service) single(a arrival) (string, bool) {
	j := &s.jobs[a.job]
	body := j.body
	if a.miss {
		body = j.missBody
	}
	st, disp, err := s.verify(body)
	if err != nil {
		s.e.ck.op(false, "verify %s: %v", j.name, err)
		return disp, false
	}
	ok := st.State == serve.StateDone && st.CacheKey == j.key && (a.miss || disp == serve.DispositionHit)
	ok = s.e.ck.op(ok && reportOK(j.key, st.Report), "verify %s: state %s, key match %t, disposition %s, report digest match %t",
		j.name, st.State, st.CacheKey == j.key, disp, reportOK(j.key, st.Report))
	return disp, ok
}

// hitProbe sends one request for a cached key, checks the answer and
// returns its round-trip time.
func (s *service) hitProbe(tr *tracer, j *svcJob) float64 {
	return tr.timed("http.hit_roundtrip", func() {
		st, disp, err := s.verify(j.body)
		s.e.ck.op(err == nil && disp == serve.DispositionHit && reportOK(j.key, st.Report),
			"hit probe %s: disposition %s, report digest match %t, error %v", j.name, disp, reportOK(j.key, st.Report), err)
	})
}

// verify is one POST /v1/verify?wait=1.
func (s *service) verify(body []byte) (serve.JobStatus, string, error) {
	var st serve.JobStatus
	resp, err := s.client.Post(s.base+"/v1/verify?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, "", err
	}
	disp := resp.Header.Get("X-CC-Disposition")
	if resp.StatusCode != http.StatusOK {
		return st, disp, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, disp, err
	}
	return st, disp, nil
}

// The shares of a run's measuring time spent on phase A (sweeps) and on
// the closed-loop hit probes after phase B.
const (
	phaseAShare = 0.50
	phaseCShare = 0.30
)

// hitBlock is how many phase-C hit probes follow each garbage collection
// and host reference run; a stage-3 sample is the median round trip of one
// block.
const hitBlock = 200

func (s *service) measure(until time.Time) [3]samples {
	total := time.Until(until)
	aUntil := time.Now().Add(time.Duration(float64(total) * phaseAShare))
	var st [3]samples
	for len(st[1].walls) == 0 || time.Now().Before(aUntil) {
		for i := range sweepOpts {
			var ref float64
			if w, err := s.sweep(nil, i, true, &ref); err == nil {
				st[i].add(w, ref)
			}
		}
	}
	settle(nil)
	bUntil := until.Add(-time.Duration(float64(total) * phaseCShare))
	n := int(math.Max(1, time.Until(bUntil).Seconds()*s.e.size.rate))
	lr := s.openLoop(schedule(s.rng, n, len(s.jobs), s.e.size.rate))
	var hits []float64
	for len(st[2].walls) == 0 || time.Now().Before(until) {
		settle(nil)
		ref := s.e.hostRef()
		block := make([]float64, hitBlock)
		for k := range block {
			block[k] = s.hitProbe(nil, &s.jobs[s.rng.Intn(len(s.jobs))])
		}
		hits = append(hits, block...)
		st[2].add(median(block), ref)
	}
	s.e.printf("service: hit_roundtrip_ms median %.4f  p90 %.4f  (n=%d, closed loop)\n", 1e3*median(hits), 1e3*quantile(hits, 0.9), len(hits))
	s.e.printf("service: hit_block_s      %s, blocks of %d\n", st[2].describe(), hitBlock)

	names := [2]string{"sweep_symbolic_s", "sweep_enum_s"}
	for i := range sweepOpts {
		s.e.printf("service: %-17s %s, sweeps of %d jobs\n", names[i], st[i].describe(), len(s.jobs)/2)
	}
	s.printLoad(lr, n)
	return st
}

func (s *service) printLoad(lr *loadResult, n int) {
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"hit", lr.hit}, {"miss", lr.miss}} {
		label, tail := tailQuantile(c.xs)
		s.e.printf("service: %s_p50_ms %.4f  %s_%s_ms %.4f  (n=%d)\n",
			c.name, 1e3*median(c.xs), c.name, label, 1e3*tail, len(c.xs))
	}
	s.e.printf("service: open loop at %.0f/s, %d requests, late p50 %.4f ms, failed %d, dispositions %v\n",
		s.e.size.rate, n, 1e3*median(lr.late), lr.failed, lr.dispositions)
}

// pass is one sweep per engine and a fixed open-loop segment.
func (s *service) pass(tr *tracer) {
	for i := range sweepOpts {
		s.lastSweeps[i], _ = s.sweep(tr, i, true, nil)
	}
	if s.passSched == nil {
		s.passSched = schedule(s.rng, s.e.size.tracedArrivals, len(s.jobs), s.e.size.rate)
	}
	tr.span("loadgen.open_loop", func() { s.lastLoad = s.openLoop(s.passSched) })
}

func (s *service) layers(tr *tracer, m metrics) {
	// Engine latency as the service itself records it.
	var snap struct {
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	tr.span("http.metrics", func() {
		resp, err := s.client.Get(s.base + "/v1/metrics")
		if s.e.ck.op(err == nil, "GET /v1/metrics: %v", err) {
			defer resp.Body.Close()
			err = json.NewDecoder(resp.Body).Decode(&snap)
			s.e.ck.op(err == nil, "GET /v1/metrics body: %v", err)
		}
	})
	var engCount int64
	var engSum float64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "verify_latency_seconds.") {
			engCount += h.Count
			engSum += h.Sum
		}
	}
	m.set("serve.engine_latency_s", "s", engSum/float64(max(1, engCount)))

	// The hit path, over HTTP and in process.
	var roundtrips, submits []float64
	for k := 0; k < s.e.size.hitProbes; k++ {
		j := &s.jobs[k%len(s.jobs)]
		roundtrips = append(roundtrips, s.hitProbe(tr, j))
		submits = append(submits, tr.timed("serve.submit_hit", func() {
			job, disp, err := s.srv.SubmitEx(j.proto, j.canonical, j.opts, serve.SubmitOptions{})
			if err == nil {
				<-job.Done()
			}
			s.e.ck.op(err == nil && disp == serve.DispositionHit, "in-process hit %s: disposition %s err %v", j.name, disp, err)
		}))
	}
	m.set("http.hit_roundtrip_s", "s", median(roundtrips))
	m.set("serve.submit_hit_s", "s", median(submits))

	// Every sweep job once more through the layers' public functions.
	ip := s.inProcess(tr)
	perOp := func(name string) float64 { return tr.self(name) / float64(max(1, tr.count(name))) }
	m.set("serve.resolve_spec_s", "s", perOp("serve.resolve_spec"))
	m.set("serve.cache_key_s", "s", perOp("serve.cache_key"))
	m.set("serve.cache_get_s", "s", perOp("serve.cache_get"))
	m.set("serve.cache_put_s", "s", perOp("serve.cache_put"))
	for _, name := range []string{"compile.compile", "ccpsl.parse", "symbolic.expand", "enum.run", "campaign.audit", "serve.encode"} {
		m.set(name+"_s", "s", tr.self(name))
	}
	ratio := 1.0
	if ip.witnesses > 0 {
		ratio = float64(ip.confirmed) / float64(ip.witnesses)
	}
	m.set("campaign.confirmed_ratio", "ratio", ratio)
	// What the batch path adds over the same work done directly, if the
	// server's nproc workers overlapped perfectly.
	m.set("serve.batch_other_s", "s", s.lastSweeps[0]+s.lastSweeps[1]-ip.work/float64(s.e.nproc))

	lr := s.lastLoad
	total := 0
	for _, n := range lr.dispositions {
		total += n
	}
	hits := lr.dispositions[serve.DispositionHit]
	m.set("serve.hit_ratio", "ratio", float64(hits)/float64(max(1, total)))
	m.set("serve.disp_hit", "count", float64(hits))
	// Coalesced requests join a queued run of the same key; at this
	// arrival rate there are too few to count apart, so they are counted
	// with the queued ones (printLoad prints each disposition).
	m.set("serve.disp_computed", "count", float64(lr.dispositions[serve.DispositionQueued]+lr.dispositions[serve.DispositionCoalesced]))
	m.set("loadgen.late_ms", "ms", 1e3*median(lr.late))
	m.set("loadgen.hit_p50_ms", "ms", 1e3*median(lr.hit))
	m.set("loadgen.miss_p50_ms", "ms", 1e3*median(lr.miss))
	s.printLoad(lr, s.e.size.tracedArrivals)
}

// inProcessResult summarizes the in-process replay of the sweep jobs.
type inProcessResult struct {
	work                 float64 // seconds of layer work, all jobs
	witnesses, confirmed int
}

// inProcess runs every sweep job through the service's layers directly —
// spec resolution, cache key, parse, compile, engine, witness audit,
// report encoding, cache put and get — and checks that the report it
// renders is byte-identical to the recorded one.
func (s *service) inProcess(tr *tracer) inProcessResult {
	var r inProcessResult
	cache, err := serve.NewCache(0, "", 0)
	if !s.e.ck.op(err == nil, "serve.NewCache: %v", err) {
		return r
	}
	t0 := time.Now()
	payloads := make([][]byte, len(s.jobs))
	for k := range s.jobs {
		j := &s.jobs[k]
		var p *fsm.Protocol
		var canonical string
		tr.span("serve.resolve_spec", func() {
			if j.library != "" {
				p, canonical, err = serve.ResolveSpec(j.library, "")
			} else {
				p, canonical, err = serve.ResolveSpec("", j.canonical)
			}
		})
		if !s.e.ck.op(err == nil && canonical == j.canonical, "ResolveSpec %s: %v", j.name, err) {
			continue
		}
		var key string
		tr.span("serve.cache_key", func() { key = serve.CacheKey(canonical, j.opts) })
		tr.span("ccpsl.parse", func() { _, err = ccpsl.Parse(canonical) })
		s.e.ck.op(err == nil, "ccpsl.Parse %s: %v", j.name, err)
		tr.span("compile.compile", func() { _, err = compile.Compile(p) })
		s.e.ck.op(err == nil, "compile.Compile %s: %v", j.name, err)
		rep, w, c, err := s.verifyDirect(tr, p, j.opts)
		r.witnesses += w
		r.confirmed += c
		if !s.e.ck.op(err == nil, "in-process %s: %v", j.name, err) {
			continue
		}
		rep.CacheKey = key
		var payload []byte
		tr.span("serve.encode", func() { payload, err = json.MarshalIndent(rep, "", "  ") })
		if !s.e.ck.op(err == nil, "encode %s: %v", j.name, err) {
			continue
		}
		payload = append(payload, '\n')
		var compact bytes.Buffer
		json.Compact(&compact, payload)
		s.e.ck.op(key == j.key && reportOK(key, compact.Bytes()), "in-process %s: report differs from the service's", j.name)
		tr.span("serve.cache_put", func() { cache.Put(key, payload) })
		payloads[k] = payload
	}
	for k := range s.jobs {
		j := &s.jobs[k]
		var got []byte
		var hit bool
		tr.span("serve.cache_get", func() { got, hit, _ = cache.Get(j.key) })
		s.e.ck.op(hit && bytes.Equal(got, payloads[k]), "cache get %s: hit %t", j.name, hit)
	}
	r.work = time.Since(t0).Seconds()
	return r
}

// verifyDirect renders the report the service renders for one job,
// without its cache key; it returns the witness and confirmed counts.
func (s *service) verifyDirect(tr *tracer, p *fsm.Protocol, o serve.JobOptions) (*serve.Report, int, int, error) {
	rep := &serve.Report{
		Schema: serve.ReportSchema, Protocol: p.Name, Characteristic: p.Characteristic.String(),
		Engine: o.Engine, N: o.N, Strict: o.Strict, MaxStates: o.MaxStates, Verdict: serve.VerdictClean,
	}
	var err error
	witnesses, confirmed := 0, 0
	if o.Engine == serve.EngineSymbolic {
		var res *symbolic.Result
		tr.span("symbolic.expand", func() {
			var eng *symbolic.Engine
			if eng, err = symbolic.NewEngine(p); err == nil {
				res, err = eng.ExpandContext(context.Background(), symbolic.Options{Strict: o.Strict, MaxVisits: o.MaxStates})
			}
		})
		if err != nil {
			return nil, 0, 0, err
		}
		if res.Truncated || len(res.SpecErrors) > 0 {
			return nil, 0, 0, errors.New("symbolic run truncated or specification error")
		}
		rep.Essential, rep.Visits = len(res.Essential), res.Visits
		for _, st := range symbolic.SortStates(res.Essential) {
			rep.EssentialStates = append(rep.EssentialStates, st.StructureString(p))
		}
		for _, v := range res.Violations {
			vr := serve.ViolationReport{State: v.State.StructureString(p)}
			for _, viol := range v.Violations {
				vr.Kinds = append(vr.Kinds, viol.Kind.String())
			}
			for _, st := range v.Path {
				vr.Witness = append(vr.Witness, st.Label.String()+" -> "+st.To.StructureString(p))
			}
			tr.span("campaign.audit", func() { vr.Confirmed, vr.AuditNote = campaign.ConfirmSymbolicWitness(p, o.Strict, v) })
			rep.Violations = append(rep.Violations, vr)
		}
	} else {
		var res *enum.Result
		tr.span("enum.run", func() {
			res, err = enum.ExhaustiveContext(context.Background(), p, o.N, enum.Options{Strict: o.Strict, MaxStates: o.MaxStates})
		})
		if err != nil {
			return nil, 0, 0, err
		}
		if res.Truncated || len(res.SpecErrors) > 0 {
			return nil, 0, 0, errors.New("enumeration truncated or specification error")
		}
		rep.Essential, rep.Visits = res.Unique, res.Visits
		for _, v := range res.Violations {
			vr := serve.ViolationReport{State: v.Config.Key()}
			for _, viol := range v.Violations {
				vr.Kinds = append(vr.Kinds, viol.Kind.String())
			}
			for _, st := range v.Path {
				vr.Witness = append(vr.Witness, fmt.Sprintf("%d%s -> %s", st.Cache, st.Op, st.To))
			}
			tr.span("campaign.audit", func() {
				vr.Confirmed, vr.AuditNote = campaign.ConfirmEnumWitness(p, o.N, enum.ModeStrict, o.Strict, v)
			})
			rep.Violations = append(rep.Violations, vr)
		}
	}
	for _, v := range rep.Violations {
		rep.Verdict = serve.VerdictViolations
		witnesses++
		if v.Confirmed {
			confirmed++
		}
	}
	return rep, witnesses, confirmed, nil
}

// writeDigests records the digest of every sweep report, by cache key.
func writeDigests(path string, sz size) error {
	e := &env{seed: 1, size: sz, nproc: 2, out: os.Stderr}
	e.ck = &checker{out: os.Stderr}
	jobs, err := serviceJobs(sz.sweep)
	if err != nil {
		return err
	}
	s := &service{e: e, jobs: jobs}
	if err := s.start(); err != nil {
		return err
	}
	defer s.close()
	var lines []string
	for _, j := range jobs {
		st, _, err := s.verify(j.body)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s %s", j.key, digest(st.Report), j.opts.Engine, j.name))
	}
	sort.Strings(lines)
	head := "# SHA-256 of every report the service sweeps produce: cache key, digest, engine, protocol.\n"
	return os.WriteFile(path, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644)
}
