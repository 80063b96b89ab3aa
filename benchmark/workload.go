package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/benchmark/internal/gen"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/polypipe"
)

// aotReps is how many times over a run each AOT member is emitted and
// its binary run, shared evenly between the cycles.
const aotReps = 24

// stmtBlocks is the part of a detection summary the benchmark checks:
// one (statement, blocks) pair per nest.
type stmtBlocks struct {
	Name   string
	Blocks int
}

// program is one exec or AOT member ready to run. An AOT member also
// carries its emitted source, the binary built from it and the hash
// that binary must print (all left empty by a run that skips go build).
type program struct {
	key  string // gen.Member.Key
	prog *kernels.Program

	src  []byte
	bin  string
	want uint64
}

// readings holds every repetition a run timed: per exec member the
// compile, sequential and pipelined milliseconds of each round, per AOT
// member those of each emission and each invocation, per cycle the
// figures of its open-loop and closed-loop slice.
type readings struct {
	compile, seq, run [][]float64
	emit, pipe        [][]float64
	p50, p95, rps     []float64
}

// workload is one scenario set up for one run: programs built,
// documents serialized, server listening and (for a warm corpus) primed
// and checked against the references.
type workload struct {
	sc   gen.Scenario
	seed int64
	gen.Scale

	exec []program
	aot  []program
	docs []gen.Doc
	warm [][]byte // the checked priming response per document; nil for a cold corpus

	served []gen.Sample // a cold corpus's responses, for the check in depth after the run

	*gen.Service
}

// summaryOf is the reference for a served response: detection run
// directly on the SCoP the builder produced, with no JSON, fingerprint,
// cache or HTTP in the way.
func summaryOf(m gen.Member) ([]stmtBlocks, error) {
	info, err := polypipe.NewSession().Detect(m.Build().SCoP)
	if err != nil {
		return nil, fmt.Errorf("reference detect %s: %w", m.Name, err)
	}
	sum := make([]stmtBlocks, len(info.Stmts))
	for i, si := range info.Stmts {
		sum[i] = stmtBlocks{Name: si.Stmt.Name, Blocks: len(si.Blocks)}
	}
	return sum, nil
}

// summaryIn extracts the checked part of a 200 body.
func summaryIn(body []byte) ([]stmtBlocks, error) {
	var resp serve.DetectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	sum := make([]stmtBlocks, len(resp.Stmts))
	for i, s := range resp.Stmts {
		sum[i] = stmtBlocks{Name: s.Name, Blocks: s.Blocks}
	}
	return sum, nil
}

// setUp builds everything a run needs before its first timed
// operation. res collects the checks made on the way (golden
// cross-checks, priming responses).
func setUp(sc gen.Scenario, seed int64, sz gen.Scale, g *golden, res *gen.Result) (*workload, error) {
	w := &workload{sc: sc, seed: seed, Scale: sz}
	for _, m := range sc.Exec {
		w.exec = append(w.exec, program{key: m.Key(sc.Heavy), prog: m.Program(sc.Heavy)})
	}
	for _, m := range sc.AOT {
		w.aot = append(w.aot, program{key: m.Key(false), prog: m.Program(false)})
	}
	docs, err := gen.Docs(sc.DocMembers(seed, sz))
	if err != nil {
		return nil, err
	}
	w.docs = docs
	if w.Service, err = gen.StartService(docs); err != nil {
		return nil, err
	}

	if sc.Cold {
		for _, s := range w.Load.Closed(gen.ColdPriming(sz)) {
			w.checkSample(res, s)
		}
		return w, nil
	}

	w.warm = make([][]byte, len(docs))
	for i, d := range docs {
		want, err := summaryOf(d.Member)
		if err != nil {
			return nil, err
		}
		if pinned, ok := g.Summaries[d.Name]; ok {
			res.Op(reflect.DeepEqual(want, pinned), "%s: reference summary %v differs from golden %v", d.Name, want, pinned)
		}
		status, body, err := w.Load.Post(i)
		got, perr := summaryIn(body)
		res.Op(err == nil && status == 200 && perr == nil && reflect.DeepEqual(got, want),
			"%s: priming response status=%d err=%v summary=%v, want %v", d.Name, status, err, got, want)
		w.warm[i] = body
	}
	return w, nil
}

// checkHash counts one executed program against its reference.
func checkHash(res *gen.Result, what, key string, got, want uint64) {
	res.Op(got == want, "%s %s: hash %x, want %x", what, key, got, want)
}

// execSlice compiles and runs the exec members in rounds until the
// cycle's share of the run is spent (at least one round). A round, per
// program: a fresh cache-less session; the first pipelined run, whose
// wall time beyond Result.Elapsed is compilation; one sequential run;
// then RunsPerRound more pipelined runs.
func (w *workload) execSlice(r *rand.Rand, budget time.Duration, g *golden, res *gen.Result, rd *readings) error {
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		runtime.GC() // every round starts from the same heap
		for _, i := range r.Perm(len(w.exec)) {
			m := w.exec[i]
			sess := polypipe.NewSession()
			start := time.Now()
			first, err := sess.Run(polypipe.ModePipelined, m.prog)
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", m.key, err)
			}
			rd.compile[i] = append(rd.compile[i], gen.Ms(wall-first.Elapsed))
			rd.run[i] = append(rd.run[i], gen.Ms(first.Elapsed))

			ref, err := sess.Run(polypipe.ModeSequential, m.prog)
			if err != nil {
				return fmt.Errorf("%s: %w", m.key, err)
			}
			rd.seq[i] = append(rd.seq[i], gen.Ms(ref.Elapsed))
			g.checkHash(res, m.key, ref.Hash)
			checkHash(res, "first pipelined", m.key, first.Hash, ref.Hash)

			for k := 0; k < w.sc.RunsPerRound; k++ {
				got, err := sess.Run(polypipe.ModePipelined, m.prog)
				if err != nil {
					return fmt.Errorf("%s: %w", m.key, err)
				}
				checkHash(res, "pipelined", m.key, got.Hash, ref.Hash)
				rd.run[i] = append(rd.run[i], gen.Ms(got.Elapsed))
			}
			_ = sess.Close()
		}
	}
	return nil
}

// buildAOT emits every AOT member once and builds the binary. go build
// is the toolchain's time, not this repository's: it is neither part of
// set-up nor reported here.
func (w *workload) buildAOT(g *golden, res *gen.Result) error {
	for i := range w.aot {
		m := &w.aot[i]
		var buf bytes.Buffer
		if err := polypipe.NewSession().EmitGo(&buf, m.prog.SCoP, polypipe.EmitOptions{}); err != nil {
			return fmt.Errorf("emit %s: %w", m.key, err)
		}
		m.src = buf.Bytes()
		if w.SkipBuild {
			continue
		}
		want, err := polypipe.NewSession().Run(polypipe.ModeSequential, m.prog)
		if err != nil {
			return err
		}
		g.checkHash(res, m.key, want.Hash)
		m.want = want.Hash
		if m.bin, _, err = gen.BuildEmitted(m.key, m.src); err != nil {
			return err
		}
	}
	return nil
}

// aotSlice emits every AOT member reps times, each in a fresh session,
// and runs its binary reps times; a binary reports its own pipe=
// reading.
func (w *workload) aotSlice(reps int, res *gen.Result, rd *readings) error {
	for i, m := range w.aot {
		for k := 0; k < reps; k++ {
			var buf bytes.Buffer
			runtime.GC() // emission allocates megabytes; start each one from the same heap
			start := time.Now()
			if err := polypipe.NewSession().EmitGo(&buf, m.prog.SCoP, polypipe.EmitOptions{}); err != nil {
				return fmt.Errorf("emit %s: %w", m.key, err)
			}
			rd.emit[i] = append(rd.emit[i], gen.Ms(time.Since(start)))
			res.Op(bytes.Equal(m.src, buf.Bytes()), "emit %s: source differs between two emissions", m.key)
		}
		for k := 0; k < reps && m.bin != ""; k++ {
			hash, _, _, pipe, err := gen.RunEmitted(m.bin)
			if err != nil {
				return err
			}
			checkHash(res, "emitted binary", m.key, hash, m.want)
			rd.pipe[i] = append(rd.pipe[i], gen.Ms(pipe))
		}
	}
	return nil
}

// checkSample counts one served request. A warm response must equal
// the priming response byte for byte (which was itself checked against
// the reference); a cold one must be a 200 naming every nest.
func (w *workload) checkSample(res *gen.Result, s gen.Sample) bool {
	d := w.docs[s.Doc]
	ok := s.Err == nil && s.Status == 200
	if ok && w.warm != nil {
		ok = bytes.Equal(s.Body, w.warm[s.Doc])
	} else if ok {
		sum, err := summaryIn(s.Body)
		ok = err == nil && len(sum) == len(d.Spec.Nums)
	}
	res.Op(ok, "%s: status=%d err=%v body=%.120q", d.Name, s.Status, s.Err, s.Body)
	return ok
}

// serveSlice drives one open-loop slice, then one closed-loop slice.
func (w *workload) serveSlice(open, closed []int, res *gen.Result, rd *readings) {
	runtime.GC()
	samples := w.Load.Open(open, w.sc.OpenRate)
	for _, s := range samples {
		w.checkSample(res, s)
	}
	p50, p95 := gen.LatencyMs(samples)
	rd.p50, rd.p95 = append(rd.p50, p50), append(rd.p95, p95)
	if achieved := gen.AchievedRate(samples); achieved < 0.95*w.sc.OpenRate {
		fmt.Fprintf(os.Stderr, "warning: open loop sent %.1f req/s of %.1f: requests queued behind busy connections\n", achieved, w.sc.OpenRate)
	}

	runtime.GC()
	csamples := w.Load.Closed(closed)
	rd.rps = append(rd.rps, gen.Throughput(csamples, func(s gen.Sample) bool { return w.checkSample(res, s) }))
	if w.sc.Cold {
		w.served = append(append(w.served, samples...), csamples...)
	}
}

// checkServed checks a seeded sample of a cold corpus's responses in
// depth, against detection run directly on the builder's SCoP.
func (w *workload) checkServed(res *gen.Result) error {
	r := rand.New(rand.NewSource(w.seed))
	for _, i := range r.Perm(len(w.served))[:min(24, len(w.served))] {
		s := w.served[i]
		want, err := summaryOf(w.docs[s.Doc].Member)
		if err != nil {
			return err
		}
		got, _ := summaryIn(s.Body)
		res.Op(reflect.DeepEqual(got, want), "%s: served summary %v, want %v", w.docs[s.Doc].Name, got, want)
	}
	return nil
}

// sumUncontended adds up the members' uncontended readings.
func sumUncontended(perMember [][]float64) (sum float64) {
	for _, xs := range perMember {
		sum += gen.Uncontended(xs)
	}
	return sum
}

// runWorkload is one run of one workload: set-up (repeated), then cycles of an exec slice, an AOT slice and the two serve
// slices, then the result. Each metric is read at the uncontended
// quartile of its repetitions, which lie all along the run: times per
// member and summed over members, latency and throughput per cycle.
func runWorkload(sc gen.Scenario, seed int64, sz gen.Scale) (*gen.Result, error) {
	res := gen.NewResult()
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}

	var w *workload
	var setups []float64
	for rep := 0; rep < sz.Reps(sc.SetupReps, 1); rep++ {
		if w != nil {
			w.Stop()
		}
		runtime.GC()
		start := time.Now()
		if w, err = setUp(sc, seed, sz, g, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.Stop()
	res.Set("setup_s", gen.Uncontended(setups), "s")
	if err := w.buildAOT(g, res); err != nil {
		return nil, err
	}

	cycles, _, _ := sc.Slices(sz)
	open, closed := sc.Orders(seed, sz, len(w.docs))
	rd := &readings{
		compile: make([][]float64, len(w.exec)), seq: make([][]float64, len(w.exec)), run: make([][]float64, len(w.exec)),
		emit: make([][]float64, len(w.aot)), pipe: make([][]float64, len(w.aot)),
	}
	r := rand.New(rand.NewSource(seed))
	execBudget := time.Duration(sc.ExecShare * sz.Seconds / float64(cycles) * float64(time.Second))
	var peaks []float64
	for c := 0; c < cycles; c++ {
		if err := gen.RestartPeakRSS(); err != nil {
			return nil, err
		}
		if err := w.execSlice(r, execBudget, g, res, rd); err != nil {
			return nil, err
		}
		if err := w.aotSlice((sz.Reps(aotReps, 2)+cycles-1)/cycles, res, rd); err != nil {
			return nil, err
		}
		w.serveSlice(open[c], closed[c], res, rd)
		rss, err := gen.PeakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
	}
	if err := w.checkServed(res); err != nil {
		return nil, err
	}

	res.Set("compile_ms", sumUncontended(rd.compile), "ms")
	res.Set("seq_ms", sumUncontended(rd.seq), "ms")
	res.Set("run_ms", sumUncontended(rd.run), "ms")
	res.Set("aot_emit_ms", sumUncontended(rd.emit), "ms")
	res.Set("aot_run_ms", sumUncontended(rd.pipe), "ms")
	srcBytes := 0
	for _, m := range w.aot {
		srcBytes += len(m.src)
	}
	res.Set("aot_src_bytes", float64(srcBytes), "bytes")
	res.Set("lat_p50_ms", gen.Uncontended(rd.p50), "ms")
	res.Set("lat_p95_ms", gen.Uncontended(rd.p95), "ms")
	res.Set("throughput_rps", gen.UncontendedRate(rd.rps), "req/s")

	res.Set("peak_rss_mb", gen.Median(peaks), "MB")
	return res, nil
}
