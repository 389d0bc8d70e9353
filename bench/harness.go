package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/server"
	"performa/internal/spec"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
)

// params are the settings of one benchmark process.
type params struct {
	corpusDir string
	outDir    string
	seed      uint64
	window    time.Duration
	minRounds int
	// smoke shrinks every workload to a few requests so bench_test.go
	// can exercise all of them inside tier-1: 3 corpus systems, one
	// planning rate, 10 event batches.
	smoke bool
}

// workload is one traffic mix. The run calls oracle once, setup one or
// more times (teardown between), then round repeatedly, then — in a
// traced run — replay once, and teardown last.
type workload interface {
	// clients is how many closed-loop client goroutines (and keep-alive
	// connections) the timed operations use.
	clients() int
	// oracle computes the expected answers with direct library calls.
	// It is the checker's cost, not the program's, so it is timed as
	// oracle_s and kept out of setup_s.
	oracle() error
	// setup makes the inputs from the seed, pre-marshals every request
	// body, and starts and pre-warms whatever outlives a round.
	setup() error
	teardown()
	// round sends the fixed request list once and checks every reply.
	round(rec *roundRec) error
	// replay re-executes one round's requests through the layers' public
	// functions under spans, and adds up the layers' counts.
	replay(rr *replayRun) error
}

func newWorkload(name string, p params) (workload, error) {
	switch name {
	case "cold-corpus":
		return &coldCorpus{p: p}, nil
	case "warm-whatif":
		return &warmWhatIf{p: p}, nil
	case "plan-search":
		return &planSearch{p: p}, nil
	case "ingest-steady":
		return &ingestSteady{p: p}, nil
	case "drift-replan":
		return &driftReplan{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// clientCount caps a workload's client goroutines at the core count: the
// generator shares the machine with the server it drives, and more
// clients than cores would measure the scheduler.
func clientCount(w workload) int {
	return min(w.clients(), runtime.NumCPU())
}

// roundRec collects what one round observed.
type roundRec struct {
	// A traced round records a span for each operation whose request
	// number has this parity (see runTraced); tr is nil in an untraced
	// round.
	tr     *tracer
	parity int

	mu        sync.Mutex
	opsMS     []float64 // latency of each operation, by request number
	tracedMS  float64   // summed latency of the operations with a span
	plainMS   float64   // and of those without
	attempted int
	failed    int
	firstErr  error
	counts    map[string]float64
}

func newRoundRec(tr *tracer, parity int) *roundRec {
	return &roundRec{tr: tr, parity: parity, counts: make(map[string]float64)}
}

// op times one client-observed operation, then runs its correctness
// check outside the timer. A transport error, a refusal, or a failed
// check counts the operation as failed.
func (r *roundRec) op(request int, do func() error, check func() error) {
	traced := r.tr != nil && request%2 == r.parity
	start := time.Now()
	err := do()
	if traced {
		r.tr.add(spanOp, 0, request, int64(start.Sub(r.tr.t0)), r.tr.now())
	}
	ms := float64(time.Since(start)) / 1e6
	if err == nil {
		err = check()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	for len(r.opsMS) <= request {
		r.opsMS = append(r.opsMS, 0)
	}
	r.opsMS[request] = ms
	if traced {
		r.tracedMS += ms
	} else {
		r.plainMS += ms
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("request %d: %w", request, err)
		}
	}
}

func (r *roundRec) count(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// eachRequest runs fn(i) for i in [0, n) from the given number of
// closed-loop client goroutines: each takes the next request only after
// its previous one returned.
func eachRequest(clients, n int, fn func(i int)) {
	if clients <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// eachRequestErr is eachRequest for calls that can fail; it runs them all
// and returns the first error.
func eachRequestErr(clients, n int, fn func(i int) error) error {
	var mu sync.Mutex
	var firstErr error
	eachRequest(clients, n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// liveServer is an in-process wfmsd on a loopback port, wired the way
// cmd/wfmsd wires it.
type liveServer struct {
	svc    *server.Server
	http   *http.Server
	url    string
	served chan error
}

func startServer(opts server.Options) (*liveServer, error) {
	// The daemon formats one log line per request; keep that cost and
	// drop the bytes.
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := server.New(opts)
	s := &liveServer{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener, waits for the serve
// goroutine to return, and collects what the server leaves behind. The
// workloads that start a server per round would otherwise begin each
// round wherever the previous one left the collector, and peak RSS
// would depend on it (a 15 % spread between runs against 5 %).
func (s *liveServer) stop() error {
	defer runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// freshServer runs fn against a server nobody has talked to, over one
// keep-alive connection opened before fn starts, and stops the server
// afterwards. The workloads whose rounds must not see the previous
// round's caches or streams run every round through it.
func freshServer(opts server.Options, fn func(url string, call *caller) error) error {
	srv, err := startServer(opts)
	if err != nil {
		return err
	}
	call := newCaller(1)
	defer call.close()
	err = call.dial(srv.url, 1)
	if err == nil {
		err = fn(srv.url, call)
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

// caller is the generator's HTTP side: one transport holding as many
// keep-alive connections as the workload has clients.
type caller struct {
	client *http.Client
}

func newCaller(conns int) *caller {
	return &caller{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

// do sends one request and returns the body of a 200 reply; any other
// status is an error carrying the reply.
func (c *caller) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *caller) post(url string, body []byte) ([]byte, error) {
	return c.do(http.MethodPost, url, body)
}

func (c *caller) get(url string) ([]byte, error) { return c.do(http.MethodGet, url, nil) }

// dial opens the keep-alive connections to a fresh server before any
// operation is timed, so no operation pays the TCP handshake.
func (c *caller) dial(url string, conns int) error {
	return eachRequestErr(conns, conns, func(int) error {
		_, err := c.get(url + "/healthz")
		return err
	})
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// system is one corpus document, decoded once for the oracle and the
// replay and marshalled once for the wire.
type system struct {
	name        string
	doc         *wfjson.Document
	docJSON     []byte
	env         *spec.Environment
	flows       []*spec.Workflow
	config      []int
	fingerprint string
}

func newSystem(name string, env *spec.Environment, flows []*spec.Workflow, config []int) (*system, error) {
	doc, err := wfjson.ToDocument(env, flows)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	docJSON, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fp, err := wfjson.Fingerprint(env, flows)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &system{name: name, doc: doc, docJSON: docJSON, env: env, flows: flows, config: config, fingerprint: fp}, nil
}

// loadCorpus reads corpus/systems/*.wfjson in name order.
func loadCorpus(p params) ([]*system, error) {
	paths, err := filepath.Glob(filepath.Join(p.corpusDir, "systems", "*.wfjson"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if p.smoke && len(paths) > 3 {
		paths = paths[:3]
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no corpus systems under %s", filepath.Join(p.corpusDir, "systems"))
	}
	out := make([]*system, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		name := filepath.Base(path)
		sys, err := newSystem(name[:len(name)-len(filepath.Ext(name))], env, flows, wfcommons.Replicas(env))
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

// shuffled returns a seeded permutation of [0, n): the order a round
// sends its requests in, the same in every round of a run.
func shuffled(seed uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, 0x77666d73)).Perm(n)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshalling a request the benchmark built itself: %v", err))
	}
	return raw
}

// forEachParallel runs fn over [0, n) on every core and returns the
// first error; the oracles use it to build the corpus models.
func forEachParallel(n int, fn func(i int) error) error {
	return eachRequestErr(runtime.NumCPU(), n, fn)
}
