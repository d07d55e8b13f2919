package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// WorkerHandler serves the internal shard-evaluation routes an enaserve
// worker peer (enaserve -worker) mounts:
//
//	POST /v1/internal/shard/explore   evaluate a design-point range, NDJSON stream
//	POST /v1/internal/shard/scale     evaluate a node-count range, NDJSON stream
//	GET  /v1/internal/ping            worker liveness
//
// Responses stream one line per completed item and flush eagerly, so the
// coordinator sees partial progress the moment it exists; a worker killed
// mid-shard leaves a truncated stream the coordinator detects by the missing
// "done" trailer. Evaluation parallelism inside the worker is GOMAXPROCS;
// lines may arrive out of index order (each carries its index).
func WorkerHandler(reg *obs.Registry) http.Handler { return WorkerHandlerDelay(reg, 0) }

// WorkerHandlerDelay is WorkerHandler with the eval-delay chaos knob: every
// evaluated item sleeps evalDelay first, stretching sweeps so kill-mid-sweep
// tests have a window to hit (see Coordinator.SetEvalDelay).
func WorkerHandlerDelay(reg *obs.Registry, evalDelay time.Duration) http.Handler {
	w := &worker{
		delay:     evalDelay,
		shardsCtr: reg.Counter("cluster.worker.shards"),
		itemsCtr:  reg.Counter("cluster.worker.items"),
		errsCtr:   reg.Counter("cluster.worker.errors"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/shard/explore", w.route(exploreShard))
	mux.HandleFunc("POST /v1/internal/shard/scale", w.route(scaleShard))
	mux.HandleFunc("GET /v1/internal/ping", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	return mux
}

type worker struct {
	delay     time.Duration
	shardsCtr *obs.Counter
	itemsCtr  *obs.Counter
	errsCtr   *obs.Counter
}

// maxShardBody bounds shard request bodies (they are small JSON documents).
const maxShardBody = 1 << 20

// decodeShard decodes a shard request body into v and checks its protocol
// version, which the decode itself fills in through ver.
func decodeShard(w http.ResponseWriter, r *http.Request, v any, ver *int) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxShardBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid shard request: %w", err)
	}
	if *ver != protoVersion {
		return fmt.Errorf("shard protocol v%d, want v%d", *ver, protoVersion)
	}
	return nil
}

// shardItem evaluates item idx of a shard into its stream line.
type shardItem func(ctx context.Context, idx int) (shardLine, error)

// shardPrep is one shard kind's decode-and-validate step: the item range
// [start, end) to stream and how to evaluate each item. An error is the
// client's (400).
type shardPrep func(w http.ResponseWriter, r *http.Request) (start, end int, item shardItem, err error)

// route serves one shard kind: its prep step, then the shared stream —
// items evaluated on a GOMAXPROCS pool, one line each as it completes, and
// a "done" trailer, or an "error" line when an item fails.
func (wk *worker) route(prep shardPrep) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		start, end, item, err := prep(rw, r)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		wk.shardsCtr.Inc()
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.WriteHeader(http.StatusOK)
		// Lines are serialized and flushed one by one, so the coordinator
		// observes per-item progress; after a write error every send fails.
		fl, _ := rw.(http.Flusher)
		var mu sync.Mutex
		var wrErr error
		send := func(l shardLine) error {
			mu.Lock()
			defer mu.Unlock()
			if wrErr == nil {
				if _, wrErr = rw.Write(l.encode()); wrErr == nil && fl != nil {
					fl.Flush()
				}
			}
			return wrErr
		}
		err = parallelRange(r.Context(), end-start, func(ctx context.Context, i int) error {
			chaosSleep(ctx, wk.delay)
			l, err := item(ctx, start+i)
			if err != nil {
				return err
			}
			wk.itemsCtr.Inc()
			return send(l)
		})
		if err != nil {
			// The status line is already out; the truncated stream (no
			// "done") is the failure signal. The error line is for logs.
			wk.errsCtr.Inc()
			send(shardLine{Type: "error", Error: err.Error()})
			return
		}
		send(shardLine{Type: "done", Count: end - start})
	}
}

// exploreShard prepares a design-point shard. Its inputs must lie inside
// the envelope /v1/explore accepts: a valid space (grid form) or positive
// points (list form), a positive budget, and known optimizations.
func exploreShard(w http.ResponseWriter, r *http.Request) (int, int, shardItem, error) {
	var req ExploreShardRequest
	if err := decodeShard(w, r, &req, &req.V); err != nil {
		return 0, 0, nil, err
	}
	kernels, err := resolveKernels(req.Kernels)
	if err != nil {
		return 0, 0, nil, err
	}
	if !(req.BudgetW > 0) {
		return 0, 0, nil, fmt.Errorf("non-positive budget %v W", req.BudgetW)
	}
	if req.Opts&^uint(powopt.All) != 0 {
		return 0, 0, nil, fmt.Errorf("unknown optimization bits %#x", req.Opts&^uint(powopt.All))
	}
	// List form: evaluate the explicit points, reporting global indices
	// Start+i. Grid form: index the canonical space enumeration directly.
	var point func(idx int) dse.Point
	if len(req.Points) > 0 {
		if req.Start < 0 || req.End-req.Start != len(req.Points) {
			return 0, 0, nil, fmt.Errorf("shard range [%d, %d) does not cover the %d listed points", req.Start, req.End, len(req.Points))
		}
		for _, p := range req.Points {
			if p.CUs <= 0 || !(p.FreqMHz > 0) || !(p.BWTBps > 0) || p.GPUChiplets < 0 || p.HBMStackGB < 0 || p.ExtModules < 0 {
				return 0, 0, nil, fmt.Errorf("invalid design point %+v", p)
			}
		}
		point = func(idx int) dse.Point { return req.Points[idx-req.Start] }
	} else {
		space := req.space()
		if err := space.Validate(); err != nil {
			return 0, 0, nil, err
		}
		if n := space.Size(); req.Start < 0 || req.End > n || req.Start >= req.End {
			return 0, 0, nil, fmt.Errorf("shard range [%d, %d) out of the %d-point space", req.Start, req.End, n)
		}
		pts := space.Points()
		point = func(idx int) dse.Point { return pts[idx] }
	}
	opts := powopt.Technique(req.Opts)
	return req.Start, req.End, func(ctx context.Context, idx int) (shardLine, error) {
		ev, err := dse.EvaluatePointContext(ctx, point(idx), kernels, req.BudgetW, opts)
		return shardLine{Type: "eval", Index: idx, Eval: &ev}, err
	}, nil
}

// scaleShard prepares a node-count shard, inside the envelope /v1/scale
// accepts (CheckScaleEnvelope, node-only masks, non-negative links).
func scaleShard(w http.ResponseWriter, r *http.Request) (int, int, shardItem, error) {
	var req ScaleShardRequest
	if err := decodeShard(w, r, &req, &req.V); err != nil {
		return 0, 0, nil, err
	}
	k, err := workload.ByName(req.Kernel)
	if err != nil {
		return 0, 0, nil, err
	}
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return 0, 0, nil, err
	}
	mask, err := faults.ParseMask(req.Mask)
	if err != nil {
		return 0, 0, nil, err
	}
	if _, local := mask.SplitNode(); !local.Empty() {
		return 0, 0, nil, fmt.Errorf("fault mask %q has non-node terms", req.Mask)
	}
	if err := CheckScaleEnvelope(req.Topology, req.Sizes, !mask.Empty()); err != nil {
		return 0, 0, nil, err
	}
	if req.LinkGBps < 0 || req.LatencyNs < 0 {
		return 0, 0, nil, fmt.Errorf("negative link parameters (%v GB/s, %v ns)", req.LinkGBps, req.LatencyNs)
	}
	if req.Start < 0 || req.End > len(req.Sizes) || req.Start >= req.End {
		return 0, 0, nil, fmt.Errorf("shard range [%d, %d) out of %d sizes", req.Start, req.End, len(req.Sizes))
	}
	spec := fabric.LinkSpec{BandwidthGBps: req.LinkGBps, LatencyNs: req.LatencyNs, Ideal: req.Ideal}
	// The node rate is derived locally: it is a deterministic function of the
	// kernel (sustained TFLOP/s on the best-mean EHP), identical on every
	// replica of the same build.
	rate := exp.NodeRateFor(k)
	return req.Start, req.End, func(ctx context.Context, idx int) (shardLine, error) {
		se, err := EvalScale(req.Topology, spec, k, rate, req.Sizes[idx], mode, mask, req.Seed)
		return shardLine{Type: "scale", Index: idx, Scale: &se}, err
	}, nil
}

// parallelRange runs fn(ctx, i) for i in [0, n) on a bounded pool, stopping
// at the first error or context cancellation.
func parallelRange(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	work := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cctx.Err() != nil {
					continue // drain
				}
				if err := fn(cctx, i); err != nil {
					select {
					case errs <- err:
					default:
					}
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-cctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return ctx.Err()
}
