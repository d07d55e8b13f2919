package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ena/internal/dse"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// DefaultShardsPerPeer is how many shards each peer gets per job: more than
// one so a failed peer forfeits only a slice of the work and the survivors
// rebalance at shard granularity.
const DefaultShardsPerPeer = 3

// Checkpoint chunk defaults: explore points are cheap (fixed-size chunks keep
// shard boundaries independent of the peer set, so a checkpoint written by
// one replica resumes on any other); scale sizes are whole-fabric evaluations
// and chunk small.
const (
	DefaultCheckpointItems = 64
	defaultScaleChunk      = 2
)

// CkptStore is the slice of the result store the coordinator needs for shard
// checkpoints. *store.Store satisfies it; both methods must be safe for
// concurrent use.
type CkptStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// Coordinator runs sweeps: it fans their shards out to enaserve worker
// peers and evaluates locally whatever no peer runs — every shard, when it
// has no peers. Safe for concurrent use by multiple jobs.
type Coordinator struct {
	peers  []string
	client *http.Client

	prober     *Prober
	ckpt       CkptStore
	ckptChunk  int
	scaleChunk int
	evalDelay  time.Duration

	dispatched  *obs.Counter
	retries     *obs.Counter
	peerFails   *obs.Counter
	itemsCtr    *obs.Counter
	localShards *obs.Counter
	resumedCtr  *obs.Counter
	ckptCtr     *obs.Counter
}

// NewCoordinator builds a coordinator over the given peer base URLs
// (e.g. "http://10.0.0.2:8080"). Metrics land in reg under cluster.* plus
// the checkpoint counters under jobs.* (jobs.resumed_shards,
// jobs.checkpoints — they describe job durability, not fan-out).
func NewCoordinator(peers []string, reg *obs.Registry) *Coordinator {
	c := &Coordinator{
		peers: append([]string(nil), peers...),
		// No overall client timeout: shard streams legitimately run long.
		// Dial/TLS inherit http.DefaultTransport's limits, and every request
		// carries the job context.
		client:      &http.Client{},
		ckptChunk:   DefaultCheckpointItems,
		scaleChunk:  defaultScaleChunk,
		dispatched:  reg.Counter("cluster.shards_dispatched"),
		retries:     reg.Counter("cluster.shard_retries"),
		peerFails:   reg.Counter("cluster.peer_failures"),
		itemsCtr:    reg.Counter("cluster.items_streamed"),
		localShards: reg.Counter("cluster.local_fallback_shards"),
		resumedCtr:  reg.Counter("jobs.resumed_shards"),
		ckptCtr:     reg.Counter("jobs.checkpoints"),
	}
	reg.Gauge("cluster.peers").Set(float64(len(peers)))
	return c
}

// SetProber installs health-aware peer membership: shard assignment draws
// from the prober's healthy set instead of the static peer list, shard
// failures feed back into it, and fast peers (by probe EWMA) pull with
// double concurrency.
func (c *Coordinator) SetProber(p *Prober) { c.prober = p }

// EnableCheckpoints persists completed shard partials to cs so an adopted or
// restarted job resumes from its checkpoint instead of recomputing. chunk
// fixes the explore shard size (<= 0 uses DefaultCheckpointItems); fixed
// chunks keep shard boundaries identical across replicas with different
// peer sets, which is what makes another replica's checkpoints resumable.
func (c *Coordinator) EnableCheckpoints(cs CkptStore, chunk int) {
	c.ckpt = cs
	if chunk > 0 {
		c.ckptChunk = chunk
		c.scaleChunk = min(chunk, defaultScaleChunk)
	}
}

// SetEvalDelay installs a chaos knob: every item evaluated locally by this
// coordinator sleeps d first. It exists to stretch sweeps so kill-mid-sweep
// tests (and demos) have a window to hit; production leaves it zero.
func (c *Coordinator) SetEvalDelay(d time.Duration) { c.evalDelay = d }

// Enabled reports whether the coordinator has peers to shard onto.
func (c *Coordinator) Enabled() bool { return len(c.peers) > 0 }

// Active reports whether the coordinator adds anything over a plain
// in-process sweep: peers to fan out to, or a checkpoint store that makes
// even a single-process sweep resumable. Callers with their own in-process
// path (the service's perf-cached explore) use it when this is false.
func (c *Coordinator) Active() bool { return len(c.peers) > 0 || c.ckpt != nil }

// activePeers is the shard-assignment set: the prober's healthy peers when
// health tracking is on, the static list otherwise.
func (c *Coordinator) activePeers() []string {
	if c.prober == nil {
		return c.peers
	}
	return c.prober.Healthy()
}

// pullerCount weights a peer's shard-pull concurrency by probe latency:
// peers within 1.5x of the fastest EWMA (or not yet measured) pull two
// shards at a time, laggards one.
func (c *Coordinator) pullerCount(peer string, peers []string) int {
	if c.prober == nil {
		return 1
	}
	min := 0.0
	for _, u := range peers {
		if e := c.prober.EwmaNs(u); e > 0 && (min == 0 || e < min) {
			min = e
		}
	}
	if min == 0 {
		return 2 // nothing measured yet: every peer starts fast
	}
	if e := c.prober.EwmaNs(peer); e == 0 || e <= 1.5*min {
		return 2
	}
	return 1
}

// chaosSleep implements the eval-delay knob, respecting cancellation.
func chaosSleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// sweepKind is what one kind of sweep supplies to sweep; everything else —
// sharding, peer streaming, failover, local fallback, checkpoints and the
// positional merge — is shared by every kind.
type sweepKind[T any] struct {
	// name is the worker route (/v1/internal/shard/<name>) and the
	// checkpoint key namespace (ck:<name>:<protoVersion>:<job key>:<range>).
	name string
	// chunk is the checkpointed shard size; 0 never checkpoints the kind.
	chunk int
	// request builds the shard request a peer is sent.
	request func(sh shard) any
	// eval computes item i locally — the same pure function a peer runs.
	eval func(ctx context.Context, i int) (T, error)
	// item picks the kind's item out of a stream line (nil: wrong line).
	item func(l shardLine) *T
}

// Explore shards the design space across the peers and merges the evaluated
// points into the same Outcome a local dse sweep produces — bit-identical,
// including under per-shard failover (see runShards). A non-empty ckptKey
// (the job's canonical result key) checkpoints completed shards when a
// checkpoint store is installed, and resumes any shard a previous attempt —
// this replica's or a dead peer coordinator's — already persisted.
func (c *Coordinator) Explore(ctx context.Context, space dse.Space, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique, ckptKey string) (dse.Outcome, error) {
	pts := space.Points()
	evals, err := sweep(ctx, c, c.pointKind(pts, &space, kernels, names, budgetW, opts), len(pts), ckptKey)
	if err != nil {
		return dse.Outcome{}, err
	}
	return dse.Finalize(evals, kernels, budgetW, opts), nil
}

// EvaluatePoints shards an explicit design-point list — a surrogate
// explorer's acquisition batch — across the peers and returns the Evals in
// list order, each computed by dse.EvaluatePointContext exactly as a grid
// shard computes it (MeanScore zero; the explorer's Finalize assigns it).
// Batches are transient mid-acquisition state, so they are never
// checkpointed: a restarted surrogate job replays its seeded acquisition
// from the (cached) evaluations instead.
func (c *Coordinator) EvaluatePoints(ctx context.Context, pts []dse.Point, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique) ([]dse.Eval, error) {
	return sweep(ctx, c, c.pointKind(pts, nil, kernels, names, budgetW, opts), len(pts), "")
}

// pointKind is the design-point sweep kind. With grid set, shards address
// the canonical enumeration of that space (pts must be grid.Points()) and
// checkpoint in fixed chunks; without, shards carry their listed points.
func (c *Coordinator) pointKind(pts []dse.Point, grid *dse.Space, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique) sweepKind[dse.Eval] {
	k := sweepKind[dse.Eval]{
		name: "explore",
		request: func(sh shard) any {
			r := ExploreShardRequest{V: protoVersion, Kernels: names, BudgetW: budgetW, Opts: uint(opts), Start: sh.start, End: sh.end}
			if grid != nil {
				r.CUs, r.FreqsMHz, r.BWsTBps = grid.CUs, grid.FreqsMHz, grid.BWsTBps
				r.GPUChiplets, r.HBMStackGBs, r.ExtModules = grid.GPUChiplets, grid.HBMStackGBs, grid.ExtModules
			} else {
				r.Points = pts[sh.start:sh.end]
			}
			return r
		},
		eval: func(ctx context.Context, i int) (dse.Eval, error) {
			return dse.EvaluatePointContext(ctx, pts[i], kernels, budgetW, opts)
		},
		item: func(l shardLine) *dse.Eval {
			if l.Type != "eval" {
				return nil
			}
			return l.Eval
		},
	}
	if grid != nil {
		k.chunk = c.ckptChunk
	}
	return k
}

// Scale shards a machine-scale projection's node counts across the peers
// and returns the per-size evaluations in size order. ckptKey works as in
// Explore.
func (c *Coordinator) Scale(ctx context.Context, kind string, spec fabric.LinkSpec, k workload.Kernel, rate float64, sizes []int, mode fabric.Mode, mask faults.Mask, maskStr string, seed int64, ckptKey string) ([]ScaleEval, error) {
	return sweep(ctx, c, sweepKind[ScaleEval]{
		name:  "scale",
		chunk: c.scaleChunk,
		request: func(sh shard) any {
			return ScaleShardRequest{
				V: protoVersion, Kernel: k.Name, Topology: kind, Sizes: sizes, Mode: mode.String(),
				LinkGBps: spec.BandwidthGBps, LatencyNs: spec.LatencyNs, Ideal: spec.Ideal,
				Mask: maskStr, Seed: seed, Start: sh.start, End: sh.end,
			}
		},
		eval: func(ctx context.Context, i int) (ScaleEval, error) {
			return EvalScale(kind, spec, k, rate, sizes[i], mode, mask, seed)
		},
		item: func(l shardLine) *ScaleEval {
			if l.Type != "scale" {
				return nil
			}
			return l.Scale
		},
	}, len(sizes), ckptKey)
}

// sweep evaluates items [0, n) of one sweep kind and returns them in index
// order. Without checkpointing the index space is partitioned across the
// active peers (one local shard when there are none); with it — a store
// installed, a job key given, and a kind that checkpoints — shards are
// fixed-size chunks whose boundaries do not depend on the peer set, shards
// already persisted (by this replica or any other) are resumed without
// dispatch, and every completed shard is persisted. Peer-streamed and
// locally evaluated items land in the same slots, so the merge is
// positional and bit-identical to a single-process loop.
func sweep[T any](ctx context.Context, c *Coordinator, k sweepKind[T], n int, ckptKey string) ([]T, error) {
	out := make([]T, n)
	filled := make([]atomic.Bool, n)
	put := func(i int, v T) {
		out[i] = v
		filled[i].Store(true)
	}
	peers := c.activePeers()
	var todo []shard
	var save func(shard)
	if c.ckpt != nil && ckptKey != "" && k.chunk > 0 {
		prefix := fmt.Sprintf("ck:%s:%d:%s:", k.name, protoVersion, ckptKey)
		key := func(sh shard) string { return fmt.Sprintf("%s%d-%d", prefix, sh.start, sh.end) }
		for _, sh := range chunked(n, k.chunk) {
			var part []T
			if data, ok := c.ckpt.Get(key(sh)); ok && json.Unmarshal(data, &part) == nil && len(part) == sh.end-sh.start {
				for i, v := range part {
					put(sh.start+i, v)
				}
				c.resumedCtr.Inc()
				continue
			}
			todo = append(todo, sh)
		}
		save = func(sh shard) {
			if b, err := json.Marshal(out[sh.start:sh.end]); err == nil && c.ckpt.Put(key(sh), b) == nil {
				c.ckptCtr.Inc()
			}
		}
	} else {
		todo = partition(n, len(peers)*DefaultShardsPerPeer)
	}
	path := "/v1/internal/shard/" + k.name
	remote := func(ctx context.Context, peer string, sh shard) error {
		return c.runShard(ctx, peer, path, k.request(sh), sh.end-sh.start, func(l shardLine) error {
			v := k.item(l)
			if v == nil {
				return fmt.Errorf("cluster: unexpected %q line in %s stream", l.Type, k.name)
			}
			if l.Index < sh.start || l.Index >= sh.end {
				return fmt.Errorf("cluster: %s index %d outside shard [%d, %d)", k.name, l.Index, sh.start, sh.end)
			}
			put(l.Index, *v)
			return nil
		})
	}
	local := func(ctx context.Context, i int) error {
		chaosSleep(ctx, c.evalDelay)
		v, err := k.eval(ctx, i)
		if err != nil {
			return err
		}
		put(i, v)
		return nil
	}
	if err := c.runShards(ctx, peers, todo, remote, local, save); err != nil {
		return nil, err
	}
	for i := range filled {
		if !filled[i].Load() {
			return nil, fmt.Errorf("cluster: %s item %d never evaluated (coordinator bug)", k.name, i)
		}
	}
	return out, nil
}

// runShards drives a sweep's shards to completion: pullers (one or two per
// healthy peer, by probe latency) pull shards from a shared queue and stream
// them via remote; a shard whose stream fails is requeued for the surviving
// peers (the failed peer is retired for the rest of the job and reported to
// the prober); the items of shards left over when every peer has been
// retired — or when there were none — are evaluated by local, since the
// coordinator is itself a capable replica and total peer loss degrades to a
// single-process sweep instead of an error. save (nil: no checkpointing)
// persists each completed shard before it counts as done.
func (c *Coordinator) runShards(ctx context.Context, peers []string, todo []shard,
	remote func(context.Context, string, shard) error, local func(context.Context, int) error, save func(shard)) error {
	if len(todo) == 0 {
		return nil
	}
	pending := make(chan shard, len(todo))
	for _, sh := range todo {
		pending <- sh
	}
	var remaining atomic.Int64
	remaining.Store(int64(len(todo)))
	finish := func(sh shard) bool {
		if save != nil {
			save(sh)
		}
		return remaining.Add(-1) == 0
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, peer := range peers {
		var retired atomic.Bool // shared by this peer's pullers
		for p := 0; p < c.pullerCount(peer, peers); p++ {
			wg.Add(1)
			go func(peer string, retired *atomic.Bool) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					case <-ctx.Done():
						return
					case sh := <-pending:
						if retired.Load() {
							pending <- sh
							return
						}
						c.dispatched.Inc()
						if err := remote(ctx, peer, sh); err != nil {
							// Put the shard back for the survivors and retire
							// this peer: a worker that failed once (crashed,
							// drained, unreachable) is not retried this job.
							pending <- sh
							retired.Store(true)
							if ctx.Err() == nil {
								c.peerFails.Inc()
								c.retries.Inc()
								c.prober.ReportFailure(peer)
							}
							return
						}
						c.prober.ReportSuccess(peer, 0)
						if finish(sh) {
							close(done)
							return
						}
					}
				}
			}(peer, &retired)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Whatever is left had no surviving peer to run on. All its items share
	// one local pool in index order — a pool per shard would idle cores at
	// every shard boundary, and would run a scale job's two largest sizes
	// side by side or one after the other by how its sizes fall into
	// chunks — and a shard counts done when its last item lands.
	left := make([]shard, 0, len(pending))
	for len(pending) > 0 {
		left = append(left, <-pending)
	}
	if int64(len(left)) != remaining.Load() {
		return errors.New("cluster: shard accounting mismatch (coordinator bug)")
	}
	c.localShards.Add(int64(len(left)))
	type item struct{ i, sh int }
	var items []item
	rest := make([]atomic.Int64, len(left))
	for s, sh := range left {
		rest[s].Store(int64(sh.end - sh.start))
		for i := sh.start; i < sh.end; i++ {
			items = append(items, item{i, s})
		}
	}
	return parallelRange(ctx, len(items), func(ctx context.Context, k int) error {
		it := items[k]
		if err := local(ctx, it.i); err != nil {
			return err
		}
		if rest[it.sh].Add(-1) == 0 {
			finish(left[it.sh])
		}
		return nil
	})
}

// runShard posts one shard request to a peer and applies its streamed
// lines. Any transport error, non-200 status, malformed line, or a stream
// that ends without a "done" trailer counting want items fails the shard.
func (c *Coordinator) runShard(ctx context.Context, peer, path string, reqBody any, want int, apply func(shardLine) error) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("cluster: shard request marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("cluster: peer %s: %s: %s", peer, resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	items := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l shardLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("cluster: bad stream line from %s: %w", peer, err)
		}
		switch l.Type {
		case "done":
			if l.Count != want {
				return fmt.Errorf("cluster: peer %s finished %d items, want %d", peer, l.Count, want)
			}
			return nil
		case "error":
			return fmt.Errorf("cluster: peer %s shard error: %s", peer, l.Error)
		default:
			if err := apply(l); err != nil {
				return err
			}
			c.itemsCtr.Inc()
			items++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cluster: stream from %s cut after %d items: %w", peer, items, err)
	}
	return fmt.Errorf("cluster: stream from %s ended after %d items without done", peer, items)
}
