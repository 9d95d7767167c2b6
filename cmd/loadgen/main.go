// Command loadgen drives concurrent mixed read/write traffic against the
// sharded query service and reports throughput, latency and physical
// I/O statistics — the workbench for measuring how query throughput
// scales with the shard count and how much of the logical page traffic
// the shared page cache absorbs.
//
// Example:
//
//	loadgen -shards 4 -writers 4 -readers 4 -duration 10s
//	loadgen -sweep 1,2,4,8 -duration 5s      # throughput vs shard count
//	loadgen -cache 0,262144,8388608          # throughput vs cache budget
//	loadgen -sync                            # durable writes, one fsync per write
//	loadgen -arrival-rate 50000 -sync        # open-loop Poisson arrivals via async ingest
//	loadgen -faults enospc:sync:200:wal-     # every 200th WAL fsync hits ENOSPC
//	loadgen -replicas 2                      # quorum-replicated writes, 2 followers/shard
//	loadgen -replicas 2 -repl-faults drop:50 # every 50th replica append is lost
//	loadgen -snapshot-every 2s               # incremental snapshots under load
//	loadgen -faults corrupt:read:500 -repair # corrupt reads, then repair + recover
//	loadgen -metrics-addr :9090              # live /metrics + /telemetry.json endpoint
//	loadgen -status-every 1s                 # periodic live status line
//	loadgen -telemetry-out run.json          # final snapshot (+ run.json.prom)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/vfs"
)

var faultKinds = map[string]vfs.Kind{
	"fail": vfs.KindFail, "enospc": vfs.KindNoSpace, "shortwrite": vfs.KindShortWrite,
	"syncloss": vfs.KindSyncLoss, "corrupt": vfs.KindCorrupt, "crash": vfs.KindCrash,
}

var faultOps = map[string]vfs.Op{
	"any": vfs.OpAny, "open": vfs.OpOpen, "create": vfs.OpCreate, "read": vfs.OpRead,
	"write": vfs.OpWrite, "sync": vfs.OpSync, "rename": vfs.OpRename, "remove": vfs.OpRemove,
	"readdir": vfs.OpReadDir, "mkdir": vfs.OpMkdir, "syncdir": vfs.OpSyncDir,
}

// parseFaults parses a comma-separated list of soak-mode fault rules,
// each kind:op:n[:path] — every nth operation matching op (and the
// optional path substring) fails with kind.
func parseFaults(spec string) ([]vfs.Fault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []vfs.Fault
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), ":", 4)
		if len(parts) < 3 {
			return nil, fmt.Errorf("fault %q: want kind:op:n[:path]", entry)
		}
		kind, ok := faultKinds[parts[0]]
		if !ok {
			return nil, fmt.Errorf("fault %q: unknown kind %q", entry, parts[0])
		}
		op, ok := faultOps[parts[1]]
		if !ok {
			return nil, fmt.Errorf("fault %q: unknown op %q", entry, parts[1])
		}
		n, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fault %q: bad interval %q", entry, parts[2])
		}
		f := vfs.Fault{Kind: kind, Op: op, N: n, Repeat: true}
		if len(parts) == 4 {
			f.Path = parts[3]
		}
		out = append(out, f)
	}
	return out, nil
}

var replFaultKinds = map[string]repl.FaultKind{
	"drop": repl.KindDrop, "dropack": repl.KindDropAck, "dup": repl.KindDup,
	"stale": repl.KindStale, "delay": repl.KindDelay, "crash": repl.KindCrash,
	"crashack": repl.KindCrashAck,
}

// parseReplFaults parses a comma-separated list of replication
// transport fault rules, each kind:n — every nth append to a follower
// suffers kind (drop, dropack, dup, stale, delay, crash, crashack).
func parseReplFaults(spec string) ([]repl.Fault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []repl.Fault
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("repl fault %q: want kind:n", entry)
		}
		kind, ok := replFaultKinds[parts[0]]
		if !ok {
			return nil, fmt.Errorf("repl fault %q: unknown kind %q", entry, parts[0])
		}
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("repl fault %q: bad interval %q", entry, parts[1])
		}
		out = append(out, repl.Fault{Op: repl.FaultAppend, Kind: kind, N: n, Repeat: true})
	}
	return out, nil
}

// errTally counts worker errors by failure category instead of killing
// the run: under injected faults, errors are the expected output.
type errTally struct {
	mu sync.Mutex
	m  map[string]int64
}

func (t *errTally) add(err error) {
	cat := "other"
	switch {
	case errors.Is(err, onion.ErrIngestBackpressure):
		cat = "backpressure"
	case errors.Is(err, onion.ErrQuorum):
		cat = "quorum"
	case errors.Is(err, onion.ErrReadOnly):
		cat = "readonly"
	case errors.Is(err, onion.ErrCorrupt):
		cat = "corrupt"
	case errors.Is(err, vfs.ErrCrashed):
		cat = "crashed"
	case errors.Is(err, vfs.ErrInjected):
		cat = "injected"
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]int64)
	}
	t.m[cat]++
	t.mu.Unlock()
}

func (t *errTally) snapshot() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

func parseInts(s, flagName string) []int64 {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		k, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil || k < 0 {
			log.Fatalf("bad %s entry %q", flagName, f)
		}
		out = append(out, k)
	}
	return out
}

func main() {
	var (
		shards       = flag.Int("shards", 4, "shard count (ignored with -sweep)")
		sweep        = flag.String("sweep", "", "comma-separated shard counts to sweep, e.g. 1,2,4,8")
		cache        = flag.String("cache", "", "comma-separated page-cache byte budgets to sweep, e.g. 0,262144,8388608")
		sync         = flag.Bool("sync", false, "fsync every write (closed-loop writers serialize on each shard's engine, one fsync per write; -arrival-rate batches them through the ingest pipeline)")
		arrivalRate  = flag.Float64("arrival-rate", 0, "open-loop write arrivals per second (Poisson) through the async ingest pipeline; overload surfaces as enqueue-wait and ack tail latency (0 = closed-loop writers)")
		writers      = flag.Int("writers", 4, "concurrent writer goroutines")
		readers      = flag.Int("readers", 4, "concurrent reader goroutines")
		duration     = flag.Duration("duration", 5*time.Second, "measurement window per configuration")
		side         = flag.Uint("side", 1024, "universe side (side x side grid)")
		qside        = flag.Uint("qside", 64, "query rectangle side")
		preload      = flag.Int("preload", 100_000, "records ingested before the measurement window")
		dir          = flag.String("dir", "", "engine directory (default: a fresh temp dir per run)")
		faultStr     = flag.String("faults", "", "comma-separated soak faults kind:op:n[:path], e.g. enospc:sync:200:wal- (activated after preload)")
		replicas     = flag.Int("replicas", 0, "followers per shard behind an in-process transport; every write quorum-commits and implies durable (-sync) writes (0 disables replication)")
		replFaultStr = flag.String("repl-faults", "", "comma-separated replication transport faults kind:n, e.g. drop:50 (kinds: drop, dropack, dup, stale, delay, crash, crashack; activated after preload; needs -replicas)")
		snapEvery    = flag.Duration("snapshot-every", 0, "take a composite snapshot at this interval during the window, incremental after the first; the last one is restored and verified after the run (0 disables)")
		repair       = flag.Bool("repair", false, "after the window, repair quarantined segments from the latest snapshot and attempt health recovery")
		metricsAddr  = flag.String("metrics-addr", "", "serve the live telemetry roll-up over HTTP at this address: /metrics (Prometheus text) and /telemetry.json (empty disables)")
		statusEvery  = flag.Duration("status-every", 0, "print a live status line (qps, latency percentiles, cache hit rate, per-shard health, in-flight maintenance) at this interval (0 disables)")
		telemetryOut = flag.String("telemetry-out", "", "after each run, write the final telemetry snapshot as JSON to this path and Prometheus text to path+\".prom\"")
	)
	flag.Parse()
	faults, err := parseFaults(*faultStr)
	if err != nil {
		log.Fatal(err)
	}
	replFaults, err := parseReplFaults(*replFaultStr)
	if err != nil {
		log.Fatal(err)
	}
	if len(replFaults) > 0 && *replicas < 1 {
		log.Fatal("-repl-faults needs -replicas > 0")
	}
	if *qside >= *side {
		log.Fatalf("-qside (%d) must be smaller than -side (%d)", *qside, *side)
	}

	type config struct {
		shards     int
		cacheBytes int64
	}
	var configs []config
	if *sweep != "" && *cache != "" {
		log.Fatal("-sweep and -cache are mutually exclusive: sweep one dimension at a time")
	}
	switch {
	case *sweep != "":
		for _, k := range parseInts(*sweep, "-sweep") {
			if k < 1 {
				log.Fatalf("bad -sweep entry %d", k)
			}
			configs = append(configs, config{shards: int(k)})
		}
	case *cache != "":
		for _, b := range parseInts(*cache, "-cache") {
			configs = append(configs, config{shards: *shards, cacheBytes: b})
		}
	default:
		configs = append(configs, config{shards: *shards})
	}
	fmt.Printf("loadgen: %dx%d onion universe, %d writers + %d readers, sync=%v, %v per run\n\n",
		*side, *side, *writers, *readers, *sync, *duration)
	fmt.Printf("%7s  %10s  %12s  %12s  %12s  %10s  %7s  %9s\n",
		"shards", "cacheB", "writes/s", "queries/s", "avg seeks/q", "records/q", "hit%", "allocs/q")
	tele := teleOpts{addr: *metricsAddr, statusEvery: *statusEvery, out: *telemetryOut}
	for _, cfg := range configs {
		m, err := run(cfg.shards, cfg.cacheBytes, *sync, *arrivalRate, *writers, *readers,
			*duration, uint32(*side), uint32(*qside), *preload, *dir, faults,
			*replicas, replFaults, *snapEvery, *repair, tele)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d  %10d  %12.0f  %12.0f  %12.1f  %10.0f  %7.1f  %9.1f\n",
			cfg.shards, cfg.cacheBytes, m.writesPerSec, m.queriesPerSec,
			m.seeksPerQuery, m.recordsPerQuery, 100*m.hitRate, m.allocsPerQuery)
		if ig := m.ingest; ig != nil {
			fmt.Printf("         ingest: offered=%.0f/s acked=%d shed=%d ackerrs=%d ops/batch=%.1f coalesced=%d\n",
				*arrivalRate, ig.acked, ig.shed, ig.ackErrs, ig.opsPerBatch, ig.coalesced)
			fmt.Printf("         ingest: enqueue-wait p50=%v p99=%v p999=%v  ack p50=%v p99=%v p999=%v\n",
				ig.enqP50, ig.enqP99, ig.enqP999, ig.ackP50, ig.ackP99, ig.ackP999)
		}
		if rp := m.repl; rp != nil {
			fmt.Printf("         repl: %d replicas/shard  batches=%d seeds=%d quorum-lost=%d failovers=%d  lag end=%d final=%d\n",
				rp.replicas, rp.batches, rp.seeds, rp.quorumLost, rp.failovers, rp.lagEnd, rp.lagFinal)
		}
		printTallies("write errors", m.writeErrs)
		printTallies("query errors", m.queryErrs)
		printTallies("maintenance errors", m.maintErrs)
		if m.snapshots > 0 || m.salvaged > 0 || m.restored > 0 || m.repaired > 0 {
			fmt.Printf("         recovery: snapshots=%d repaired=%d salvaged=%d restored=%d\n",
				m.snapshots, m.repaired, m.salvaged, m.restored)
		}
		if m.degradedQueries > 0 {
			fmt.Printf("         %d queries served partial results\n", m.degradedQueries)
		}
		for _, h := range m.health {
			if h.State != onion.EngineHealthy {
				fmt.Printf("         shard %d %v: %v\n", h.Shard, h.State, h.Err)
			}
		}
	}
}

func printTallies(label string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	cats := make([]string, 0, len(m))
	for c := range m {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	fmt.Printf("         %s:", label)
	for _, c := range cats {
		fmt.Printf(" %s=%d", c, m[c])
	}
	fmt.Println()
}

// metrics is one configuration's measurement.
type metrics struct {
	writesPerSec    float64
	queriesPerSec   float64
	seeksPerQuery   float64
	recordsPerQuery float64
	hitRate         float64
	allocsPerQuery  float64
	writeErrs       map[string]int64
	queryErrs       map[string]int64
	maintErrs       map[string]int64
	degradedQueries int64
	health          []onion.ShardHealth
	// Recovery tallies: snapshots committed during the window, files
	// repaired out of quarantine, records salvaged + back-filled by
	// repair, and records verified present in a restore of the last
	// snapshot.
	snapshots int64
	repaired  int64
	salvaged  int64
	restored  int64
	// ingest is set only in open-loop (-arrival-rate) mode.
	ingest *ingestReport
	// repl is set only in replicated (-replicas) mode.
	repl *replReport
}

// replReport is the replicated mode's readout: how much the followers
// trailed the leaders when the window closed (before the end-of-run
// heal), whether they converged after it (lagFinal), and the lifetime
// replication counters — quorum losses and failovers being the ones a
// hostile -repl-faults run is trying to provoke.
type replReport struct {
	replicas   int
	lagEnd     uint64
	lagFinal   uint64
	batches    int64
	seeds      int64
	quorumLost int64
	failovers  int64
}

// maxLag reduces a per-peer lag map to its worst entry.
func maxLag(m map[string]uint64) uint64 {
	var worst uint64
	for _, v := range m {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// ingestReport is the open-loop mode's tail-latency readout, pulled from
// the pipeline's own telemetry histograms after the window closes:
// enqueue-wait (time a blocking producer would have stalled for ring
// space — 0 for every uncontended arrival) and end-to-end ack latency
// (enqueue to post-fsync completion fan-out).
type ingestReport struct {
	acked       int64
	shed        int64
	ackErrs     int64
	coalesced   int64
	opsPerBatch float64
	enqP50      time.Duration
	enqP99      time.Duration
	enqP999     time.Duration
	ackP50      time.Duration
	ackP99      time.Duration
	ackP999     time.Duration
}

// teleOpts is the observability surface of one run: the live HTTP
// endpoint, the periodic status line, and the final snapshot files.
type teleOpts struct {
	addr        string
	statusEvery time.Duration
	out         string
}

// telemetrySource is anything that can export a telemetry roll-up —
// the sharded engine, or its replicated wrapper (whose snapshot adds
// the repl_* series).
type telemetrySource interface {
	TelemetrySnapshot() onion.TelemetrySnapshot
}

// serveTelemetry exposes the service's live telemetry roll-up over HTTP:
// GET /metrics renders Prometheus text exposition, GET /telemetry.json
// the expvar-style JSON document. The returned closer shuts the listener
// down.
func serveTelemetry(addr string, s telemetrySource) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.TelemetrySnapshot().WritePrometheus(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.TelemetrySnapshot().WriteJSON(w); err != nil {
			log.Printf("telemetry.json: %v", err)
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed on shutdown
	log.Printf("telemetry at http://%s/metrics and /telemetry.json", ln.Addr())
	return func() { srv.Close() }, nil
}

// histDelta subtracts prev from cur bucket-wise — the window's own
// latency distribution, independent of everything recorded before it.
func histDelta(cur, prev *onion.TelemetryHistogram) onion.TelemetryHistogram {
	if cur == nil {
		return onion.TelemetryHistogram{}
	}
	d := *cur
	if prev != nil {
		for i := range d.Buckets {
			d.Buckets[i] -= prev.Buckets[i]
		}
		d.Count -= prev.Count
		d.Sum -= prev.Sum
	}
	return d
}

// healthLetters renders per-shard health as one letter per shard
// (H/D/R/F), the status line's most compact useful form.
func healthLetters(hs []onion.ShardHealth) string {
	var b strings.Builder
	for _, h := range hs {
		switch h.State {
		case onion.EngineHealthy:
			b.WriteByte('H')
		case onion.EngineDegraded:
			b.WriteByte('D')
		case onion.EngineReadOnly:
			b.WriteByte('R')
		default:
			b.WriteByte('F')
		}
	}
	return b.String()
}

// run measures one (shard count, cache budget) configuration.
func run(shards int, cacheBytes int64, syncWrites bool, arrivalRate float64,
	writers, readers int, d time.Duration, side, qside uint32, preload int, dir string,
	faults []vfs.Fault, replicas int, replFaults []repl.Fault,
	snapEvery time.Duration, repair bool, tele teleOpts) (metrics, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "onion-loadgen")
		if err != nil {
			return metrics{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else {
		// One subdirectory per configuration: a sharded directory's
		// manifest pins its shard count, so a sweep cannot reuse it.
		dir = filepath.Join(dir, fmt.Sprintf("shards-%d-cache-%d", shards, cacheBytes))
	}
	o, err := onion.NewOnion2D(side)
	if err != nil {
		return metrics{}, err
	}
	opts := onion.ShardedEngineOptions{Shards: shards, CacheBytes: cacheBytes}
	opts.Engine.SyncWrites = syncWrites
	// With -faults, every file operation of every shard funnels through
	// an injecting filesystem; the rules activate only after the
	// preload, so setup is clean and the measurement window is hostile.
	var inj *vfs.Injecting
	if len(faults) > 0 {
		inj = vfs.NewInjecting(vfs.OS{})
		opts.FS = inj
	}
	// With -replicas, every shard leads an in-process replica set: N
	// followers per shard behind a loopback transport (wrapped for fault
	// injection), and a write ack means "fsynced on a quorum of that
	// shard's replicas". The follower directories live next to the
	// service's so a temp-dir run cleans everything up together.
	var (
		r         *onion.ReplicatedShardedEngine
		rtr       *repl.Injecting
		followers []*repl.Follower
	)
	defer func() {
		for _, fo := range followers {
			fo.Close() //nolint:errcheck // best-effort teardown
		}
	}()
	var s *onion.ShardedEngine
	if replicas > 0 {
		lb := onion.NewReplLoopback()
		rtr = repl.NewInjectingTransport(lb)
		fe := opts.Engine
		fe.SyncWrites = true
		peerIDs := make([][]string, shards)
		for sh := 0; sh < shards; sh++ {
			for f := 1; f <= replicas; f++ {
				id := fmt.Sprintf("s%d-f%d", sh, f)
				fo, err := repl.OpenFollower(id, filepath.Join(dir, "replica-"+id), o,
					repl.FollowerOptions{Engine: fe})
				if err != nil {
					return metrics{}, err
				}
				followers = append(followers, fo)
				lb.Register(id, fo)
				peerIDs[sh] = append(peerIDs[sh], id)
			}
		}
		r, err = onion.OpenReplicatedShardedEngine(filepath.Join(dir, "service"), o, opts,
			func(sh int) onion.ReplConfig {
				return onion.ReplConfig{ID: fmt.Sprintf("shard-%d", sh), Peers: peerIDs[sh], Transport: rtr}
			})
		if err != nil {
			return metrics{}, err
		}
		s = r.Sharded
	} else {
		s, err = onion.OpenShardedEngine(dir, o, opts)
		if err != nil {
			return metrics{}, err
		}
	}
	defer func() {
		var cerr error
		if r != nil {
			cerr = r.Close()
		} else {
			cerr = s.Close()
		}
		if cerr != nil {
			log.Printf("close: %v", cerr)
		}
	}()
	if tele.addr != "" {
		var src telemetrySource = s
		if r != nil {
			src = r
		}
		closeSrv, err := serveTelemetry(tele.addr, src)
		if err != nil {
			return metrics{}, err
		}
		defer closeSrv()
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < preload; i++ {
		pt := onion.Point{uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))}
		if err := s.Put(pt, rng.Uint64()); err != nil {
			return metrics{}, err
		}
	}
	if err := s.Flush(); err != nil {
		return metrics{}, err
	}
	if inj != nil {
		inj.SetFaults(faults...)
	}
	if rtr != nil && len(replFaults) > 0 {
		rtr.SetFaults(replFaults...)
	}

	var writes, queries, seeks, results, degraded atomic.Int64
	var writeErrs, queryErrs, maintErrs errTally
	m := metrics{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Open-loop mode: writes arrive on a Poisson process at -arrival-rate
	// per second through the async ingest pipeline instead of closed-loop
	// as-fast-as-acked workers. Arrival times are independent of service
	// time — a generator that falls behind schedule fires immediately
	// until it catches up — so overload cannot silently throttle the
	// offered load the way a closed loop does: it shows up in the
	// pipeline's own histograms as enqueue-wait (time stalled for ring
	// space) and end-to-end ack tail latency.
	var pipe *onion.IngestPipeline
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	if arrivalRate > 0 {
		pipe, err = s.NewIngest(onion.IngestConfig{})
		if err != nil {
			return metrics{}, err
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Per-generator rate: superposed Poisson processes are one
			// Poisson process at the summed rate.
			lambda := arrivalRate / float64(writers)
			next := time.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if pipe != nil {
					// Exponential inter-arrival, scheduled against the
					// previous arrival time, not "now": a generator that
					// falls behind fires immediately until it catches up,
					// preserving the offered rate.
					next = next.Add(time.Duration(rng.ExpFloat64() / lambda * float64(time.Second)))
					if wait := time.Until(next); wait > 0 {
						select {
						case <-stop:
							return
						case <-time.After(wait):
						}
					}
				}
				pt := onion.Point{uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))}
				var err error
				// Open-loop enqueues are fire-and-forget: the ack fans back
				// through the handle the pipeline is timing anyway, so the
				// generator never waits on service time, only (under
				// backpressure) on ring space.
				switch {
				case pipe != nil && rng.Intn(10) == 0:
					_, err = pipe.DeleteAsync(wctx, pt)
				case pipe != nil:
					_, err = pipe.PutAsync(wctx, pt, rng.Uint64())
				case rng.Intn(10) == 0:
					err = s.Delete(pt)
				default:
					err = s.Put(pt, rng.Uint64())
				}
				if errors.Is(err, context.Canceled) {
					return // the window closed while we were stalled
				}
				if err != nil {
					// Degradation is data, not a reason to stop: count
					// the failure by category and keep offering load.
					writeErrs.add(err)
					continue
				}
				writes.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			// Recycled record buffer: the steady-state query path
			// allocates nothing for the records themselves. No explicit
			// yield is needed even on GOMAXPROCS=1 — the router's bounded
			// handoff and end-of-query yield keep this zero-think-time
			// loop from starving the writers.
			var dst []onion.Record
			for {
				select {
				case <-stop:
					return
				default:
				}
				span := int(side - qside)
				q, err := onion.RectAt(
					onion.Point{uint32(rng.Intn(span)), uint32(rng.Intn(span))},
					[]uint32{qside, qside})
				if err != nil {
					queryErrs.add(err)
					continue
				}
				// Under injected faults, take whatever the healthy
				// shards can serve; Degraded in the stats marks the
				// queries that came back partial.
				pol := onion.ShardedQueryPolicy{Partial: inj != nil}
				var st onion.ShardedQueryStats
				dst, st, err = s.QueryAppendContext(context.Background(), dst[:0], q, pol)
				if err != nil {
					queryErrs.add(err)
					continue
				}
				if st.Degraded {
					degraded.Add(1)
				}
				queries.Add(1)
				seeks.Add(int64(st.Seeks))
				results.Add(int64(len(dst)))
			}
		}(r)
	}
	// Live status: one line per tick with the window's own rates and
	// latency distribution (counter and bucket deltas against the
	// previous tick), the cache hit rate, per-shard health letters, and
	// how much maintenance is in flight right now.
	if tele.statusEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(tele.statusEvery)
			defer tick.Stop()
			start := time.Now()
			var prevW, prevQ int64
			prev := s.Telemetry().Snapshot()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				cur := s.Telemetry().Snapshot()
				w, q := writes.Load(), queries.Load()
				lat := histDelta(cur.Hist("router_query_latency_us"), prev.Hist("router_query_latency_us"))
				hits := cur.Counter("cache_hits_total") - prev.Counter("cache_hits_total")
				misses := cur.Counter("cache_misses_total") - prev.Counter("cache_misses_total")
				hitPct := 0.0
				if hits+misses > 0 {
					hitPct = 100 * float64(hits) / float64(hits+misses)
				}
				inflight := 0
				for i := 0; i < s.Shards(); i++ {
					ev := s.Events(i)
					inflight += ev.InFlight(onion.EventFlush) + ev.InFlight(onion.EventCompaction) +
						ev.InFlight(onion.EventSnapshot) + ev.InFlight(onion.EventRepair)
				}
				per := tele.statusEvery.Seconds()
				fmt.Printf("  [%5.1fs] %7.0f q/s %7.0f w/s  p50=%v p99=%v p999=%v  cache %5.1f%%  health %s  maint in-flight %d\n",
					time.Since(start).Seconds(),
					float64(q-prevQ)/per, float64(w-prevW)/per,
					time.Duration(lat.Quantile(0.50))*time.Microsecond,
					time.Duration(lat.Quantile(0.99))*time.Microsecond,
					time.Duration(lat.Quantile(0.999))*time.Microsecond,
					hitPct, healthLetters(s.Health()), inflight)
				prev, prevW, prevQ = cur, w, q
			}
		}()
	}
	// Online backup: the maintenance goroutine snapshots the live service
	// on a fixed cadence — full first, then incremental against the
	// previous — through the same (possibly fault-injected) filesystem
	// the engines use. Failures are tallied, not fatal: an export must
	// never hurt the serving path.
	snapRoot := dir + "-snapshots"
	lastSnap := ""
	if snapEvery > 0 {
		defer os.RemoveAll(snapRoot)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(snapEvery)
			defer tick.Stop()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				sd := filepath.Join(snapRoot, fmt.Sprintf("snap-%04d", n))
				var err error
				if lastSnap == "" {
					_, err = s.Snapshot(sd)
				} else {
					_, err = s.SnapshotSince(sd, lastSnap)
				}
				if err != nil {
					maintErrs.add(err)
					continue
				}
				lastSnap = sd
				m.snapshots++
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wcancel() // release generators stalled in a blocking enqueue
	wg.Wait()
	runtime.ReadMemStats(&after)

	if pipe != nil {
		// Producers have stopped; drain the ring so every accepted arrival
		// is acknowledged before reading the histograms, then fold the
		// pipeline's telemetry into the run report. A failed batch is a
		// write error like any other.
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := pipe.Drain(dctx); err != nil {
			maintErrs.add(err)
		}
		cancel()
		if err := pipe.Close(); err != nil {
			writeErrs.add(err)
		}
		snap := pipe.Telemetry().Snapshot()
		ig := &ingestReport{
			acked:     int64(snap.Counter("ingest_acked_total")),
			shed:      int64(snap.Counter("ingest_backpressure_rejects_total")),
			ackErrs:   int64(snap.Counter("ingest_ack_errors_total")),
			coalesced: int64(snap.Counter("ingest_coalesced_total")),
		}
		if b := snap.Counter("ingest_batches_total"); b > 0 {
			ig.opsPerBatch = float64(snap.Counter("ingest_acked_total")+
				snap.Counter("ingest_ack_errors_total")) / float64(b)
		}
		if h := snap.Hist("ingest_enqueue_wait_us"); h != nil && h.Count > 0 {
			ig.enqP50 = time.Duration(h.Quantile(0.50)) * time.Microsecond
			ig.enqP99 = time.Duration(h.Quantile(0.99)) * time.Microsecond
			ig.enqP999 = time.Duration(h.Quantile(0.999)) * time.Microsecond
		}
		if h := snap.Hist("ingest_ack_latency_us"); h != nil && h.Count > 0 {
			ig.ackP50 = time.Duration(h.Quantile(0.50)) * time.Microsecond
			ig.ackP99 = time.Duration(h.Quantile(0.99)) * time.Microsecond
			ig.ackP999 = time.Duration(h.Quantile(0.999)) * time.Microsecond
		}
		m.ingest = ig
	}

	if r != nil {
		// End the hostile window for replication too: record how far the
		// followers trailed, then heal the transport (clearing rules and
		// reviving a crash-latched one), recover any quorum-degraded
		// shard, and drive catch-up to convergence. lagFinal should read
		// 0 — a residue here means catch-up itself is broken.
		lagEnd := maxLag(r.Lag())
		rtr.SetFaults()
		rtr.Revive()
		if err := r.TryRecover(); err != nil {
			maintErrs.add(err)
		}
		r.Heartbeat()
		snap := r.TelemetrySnapshot()
		m.repl = &replReport{
			replicas:   replicas,
			lagEnd:     lagEnd,
			lagFinal:   maxLag(r.Lag()),
			batches:    int64(snap.Counter("repl_batches_total")),
			seeds:      int64(snap.Counter("repl_seeds_total")),
			quorumLost: int64(snap.Counter("repl_quorum_lost_total")),
			failovers:  int64(snap.Counter("repl_failovers_total")),
		}
	}

	// End-of-window maintenance sweep: a final flush, full compaction and
	// verify pass, so every run's telemetry carries at least one flush,
	// compaction and scrub event and the final snapshot describes a
	// settled store. Failures are tallied like any other maintenance
	// error — under injected faults they are expected output.
	if err := s.Flush(); err != nil {
		maintErrs.add(err)
	}
	if err := s.Compact(); err != nil {
		maintErrs.add(err)
	}
	if _, err := s.Verify(); err != nil {
		maintErrs.add(err)
	}

	if repair {
		// Heal what the hostile window broke: quarantined segments repair
		// from the latest snapshot (pure salvage without one), then every
		// shard attempts guarded de-escalation back to Healthy.
		reps, err := s.Repair(lastSnap)
		if err != nil {
			maintErrs.add(err)
		}
		for _, r := range reps {
			m.repaired += int64(r.Repaired)
			m.salvaged += int64(r.Salvaged + r.Backfilled)
		}
		s.TryRecover()
	}
	if lastSnap != "" {
		// Verify the backup chain end-to-end: restore the last committed
		// snapshot (plus archived WALs) on the real filesystem and count
		// what comes back.
		cleanOpts := opts
		cleanOpts.FS = nil
		reps, err := onion.RestoreShardedEngine(lastSnap, filepath.Join(snapRoot, "restored"), -1, o, cleanOpts)
		if err != nil {
			maintErrs.add(err)
		}
		for _, r := range reps {
			m.restored += int64(r.Records)
		}
	}
	secs := d.Seconds()
	qn := float64(queries.Load())
	if qn == 0 {
		qn = 1
	}
	cst := s.CacheStats()
	m.writesPerSec = float64(writes.Load()) / secs
	m.queriesPerSec = float64(queries.Load()) / secs
	m.seeksPerQuery = float64(seeks.Load()) / qn
	m.recordsPerQuery = float64(results.Load()) / qn
	m.hitRate = cst.HitRate()
	// Mallocs across the window covers writers, flushes and the
	// router; per query it is the end-to-end allocation pressure of
	// serving, not just the engine's (zero-alloc) merge path.
	m.allocsPerQuery = float64(after.Mallocs-before.Mallocs) / qn
	m.writeErrs = writeErrs.snapshot()
	m.queryErrs = queryErrs.snapshot()
	m.maintErrs = maintErrs.snapshot()
	m.degradedQueries = degraded.Load()
	m.health = s.Health()
	if tele.out != "" {
		snap := s.TelemetrySnapshot()
		if r != nil {
			snap = r.TelemetrySnapshot()
		}
		if err := writeTelemetry(tele.out, snap); err != nil {
			return metrics{}, err
		}
	}
	return m, nil
}

// writeTelemetry renders the final roll-up twice: the JSON document at
// path, the Prometheus text exposition at path+".prom".
func writeTelemetry(path string, snap onion.TelemetrySnapshot) error {
	jf, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	pf, err := os.Create(path + ".prom")
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	return pf.Close()
}
