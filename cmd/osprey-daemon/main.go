// Command osprey-daemon runs the paper's use case 1 as an always-on
// service: the four simulated plant feeds advance on a clock, AERO timers
// poll them, analyses and the aggregation trigger automatically, and a
// status endpoint exposes what the platform is doing — the "fully
// automated ... timely model-based epidemiological analyses" mode of §2.2.
//
// Usage:
//
//	osprey-daemon [-addr 127.0.0.1:7524] [-tick 10s] [-fast]
//	              [-data-dir DIR] [-fsync always|interval|never]
//	              [-task-retention 1h]
//	              [-shards N] [-shard-addrs HOST:PORT,...]
//
// With -data-dir, the AERO metadata store and the EMEWS task database are
// backed by write-ahead logs under DIR (DIR/aero, DIR/emews): every
// mutation is persisted before it is applied, and a restart recovers the
// full state — data versions, provenance, flow registrations (adopted by
// name, not duplicated), ID counters, and tasks, with tasks that were
// Running at crash time requeued since worker leases do not survive.
// POST /metadata/admin/compact (or `ospreyctl compact`) snapshots both
// stores and truncates their logs.
//
// With -shards N (N >= 2, requires -data-dir) the daemon additionally
// serves an N-shard EMEWS task-substrate group under DIR/emews-shards:
// one WAL-backed task database per shard, each on its own EMEWS wire TCP
// listener carrying its shard identity, ready for emews.DialShardGroup
// clients. Listeners bind ephemeral loopback ports by default;
// -shard-addrs pins them. GET /shards reports per-shard addresses and
// occupancy (`ospreyctl shards` renders it).
//
// Endpoints:
//
//	GET /            status summary (flows, runs, current simulated day)
//	GET /ensemble    latest population-weighted ensemble R(t) (JSON)
//	GET /plot        latest ensemble ASCII plot
//	GET /events      AERO event trace
//	GET /topology    GraphViz DOT of the workflow
//	GET /shards      task-substrate shard group status (JSON; 404 when disabled)
//	GET /metrics     observability snapshot (counters/gauges/histograms, JSON)
//	GET /trace       recent spans (ring buffer, JSON)
//	GET /metadata/…  the embedded AERO metadata API
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"osprey"
	"osprey/internal/aero"
	"osprey/internal/emews"
	"osprey/internal/obs"
	"osprey/internal/wal"
)

// autoCompactBytes is the per-log replay debt that triggers a background
// compaction on the daemon tick.
const autoCompactBytes = 32 << 20

// probeSubstrate round-trips a few trivial tasks through the platform's
// EMEWS task DB so the task substrate is exercised (and its metrics are
// live) even though use case 1 routes its MCMC through the batch
// scheduler. Any failure here means model-exploration workloads would not
// run, which is worth knowing before one is submitted.
func probeSubstrate(db *emews.DB, n int) error {
	payloads := make([]string, n)
	for i := range payloads {
		payloads[i] = fmt.Sprintf("probe-%d", i)
	}
	futures, err := db.SubmitBatch("daemon.probe", 0, payloads)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, f := range futures {
		out, err := f.Result(ctx)
		if err != nil {
			return fmt.Errorf("probe task %d: %w", i, err)
		}
		if out != payloads[i] {
			return fmt.Errorf("probe task %d: got %q, want %q", i, out, payloads[i])
		}
	}
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("osprey-daemon: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:7524", "status/metadata listen address")
		tick       = flag.Duration("tick", 10*time.Second, "wall-clock duration of one simulated day")
		fast       = flag.Bool("fast", false, "reduced MCMC settings (quicker cycles)")
		dataDir    = flag.String("data-dir", "", "enable WAL persistence under this directory")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		retention  = flag.Duration("task-retention", time.Hour, "prune terminal tasks older than this each tick (0 disables)")
		shards     = flag.Int("shards", 0, "serve a sharded task-substrate group of this size (>= 2; requires -data-dir)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated pinned listen addresses for the shard group (default: ephemeral ports)")
	)
	flag.Parse()
	if *shards == 1 || *shards < 0 {
		log.Fatal("-shards must be 0 (disabled) or >= 2")
	}
	if *shards > 1 && *dataDir == "" {
		log.Fatal("-shards requires -data-dir (the shard group is WAL-backed)")
	}

	// With -data-dir both stateful cores recover from their write-ahead
	// logs; without it they are the plain in-memory implementations.
	var (
		store    *aero.Store
		taskDB   *emews.DB
		aeroLog  *wal.Log
		emewsLog *wal.Log
		group    *emews.ShardGroup
	)
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		aeroLog, err = wal.Open(filepath.Join(*dataDir, "aero"),
			wal.Options{Name: "wal.aero", Policy: policy, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		store, err = aero.OpenStore(aeroLog)
		if err != nil {
			log.Fatalf("recover metadata store: %v", err)
		}
		emewsLog, err = wal.Open(filepath.Join(*dataDir, "emews"),
			wal.Options{Name: "wal.emews", Policy: policy, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		taskDB, err = emews.OpenDB(emewsLog)
		if err != nil {
			log.Fatalf("recover task database: %v", err)
		}
		data, _ := store.ListData()
		flows, _ := store.ListFlows()
		st := taskDB.Stats()
		log.Printf("recovered from %s in %s: %d data records, %d flows, %d tasks (%d queued)",
			*dataDir, time.Since(start).Round(time.Millisecond), len(data), len(flows), st.Submitted, st.Queued)
		if *shards > 1 {
			var addrs []string
			if *shardAddrs != "" {
				addrs = strings.Split(*shardAddrs, ",")
			}
			group, err = emews.OpenShardGroup(filepath.Join(*dataDir, "emews-shards"), *shards, addrs,
				wal.Options{Name: "wal.shards", Policy: policy, Logf: log.Printf})
			if err != nil {
				log.Fatalf("open shard group: %v", err)
			}
			defer group.Close()
			reapCtx, reapStop := context.WithCancel(context.Background())
			defer reapStop()
			for i := 0; i < group.Shards(); i++ {
				group.DB(i).StartReaper(reapCtx, time.Second)
			}
			log.Printf("task shard group: %d shards on %v", group.Shards(), group.Addrs())
		}
	} else {
		store = aero.NewStore()
		taskDB = emews.NewDB()
	}
	// Registered before the platform so it runs after p.Shutdown (LIFO):
	// a final compaction bounds the next boot's replay, then the logs
	// close.
	defer func() {
		if aeroLog == nil {
			return
		}
		if err := store.Compact(); err != nil {
			log.Printf("compact aero: %v", err)
		}
		if err := taskDB.Compact(); err != nil {
			log.Printf("compact emews: %v", err)
		}
		_ = aeroLog.Close()
		_ = emewsLog.Close()
	}()

	p, err := osprey.New(osprey.Config{Identity: "daemon", Nodes: 8, Meta: store, TaskDB: taskDB})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	gopt := osprey.GoldsteinOptions{}
	if *fast {
		gopt = osprey.GoldsteinOptions{Iterations: 300, BurnIn: 500, Thin: 2}
	}
	wp, err := osprey.NewWastewaterPipeline(p, osprey.WastewaterConfig{
		ScenarioDays: 365,
		StartDay:     60,
		Goldstein:    gopt,
		PollInterval: *tick, // AERO timers poll each feed once per tick
		Seed:         uint64(time.Now().UnixNano()),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer wp.Close()
	log.Printf("pipeline registered: plants %v, 1 simulated day per %v", wp.PlantNames(), *tick)

	// EMEWS substrate health probe: a small local pool echoes probe
	// payloads; one round-trip at startup, then one per tick.
	probePool, err := emews.StartLocalPool(p.TaskDB, "daemon.probe", 2,
		func(ctx context.Context, payload string) (string, error) { return payload, nil })
	if err != nil {
		log.Fatal(err)
	}
	defer probePool.Stop()
	if err := probeSubstrate(p.TaskDB, 4); err != nil {
		log.Fatalf("EMEWS substrate probe failed: %v", err)
	}
	log.Print("EMEWS substrate probe ok")

	// The clock: each tick advances every feed by one day; the flows'
	// own timers notice the update on their next poll.
	day := 60
	go func() {
		ticker := time.NewTicker(*tick)
		defer ticker.Stop()
		for range ticker.C {
			wp.Advance(1)
			if err := probeSubstrate(p.TaskDB, 2); err != nil {
				log.Printf("EMEWS substrate probe failed: %v", err)
			}
			// Housekeeping: bound task-DB memory and WAL replay debt.
			if *retention > 0 {
				if n, err := p.TaskDB.Prune(*retention); err != nil {
					log.Printf("prune tasks: %v", err)
				} else if n > 0 {
					log.Printf("pruned %d terminal tasks older than %v", n, *retention)
				}
			}
			for _, l := range []*wal.Log{aeroLog, emewsLog} {
				if l == nil || l.Size() < autoCompactBytes {
					continue
				}
				compact := store.Compact
				if l == emewsLog {
					compact = taskDB.Compact
				}
				if err := compact(); err != nil {
					log.Printf("auto-compact %s: %v", l.Dir(), err)
				} else {
					log.Printf("auto-compacted %s", l.Dir())
				}
			}
			day++
			if day >= 365 {
				log.Print("scenario exhausted; feeds frozen")
				return
			}
		}
	}()

	mux := http.NewServeMux()
	metaSrv := aero.NewServer(store)
	if *dataDir != "" {
		metaSrv.SetCompact(func() error {
			if err := store.Compact(); err != nil {
				return err
			}
			return taskDB.Compact()
		})
	}
	mux.Handle("/metadata/", http.StripPrefix("/metadata", metaSrv))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "osprey-daemon: simulated day %d\n\n", day)
		flows, err := store.ListFlows()
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		fmt.Fprintf(w, "%-14s %-22s %-10s %s\n", "ID", "NAME", "KIND", "RUNS")
		for _, f := range flows {
			fmt.Fprintf(w, "%-14s %-22s %-10s %d\n", f.ID, f.Name, f.Kind, f.Runs)
		}
		fmt.Fprintf(w, "\naggregate runs: %d\n", wp.Aggregate.Runs())
		fmt.Fprint(w, "\nendpoints: /ensemble /plot /events /topology /metrics /trace /metadata/...\n")
	})
	mux.HandleFunc("/ensemble", func(w http.ResponseWriter, r *http.Request) {
		data, _, err := p.AERO.FetchLatest(wp.Aggregate.OutputUUIDs[0], p.Storage)
		if err != nil {
			http.Error(w, "no ensemble yet: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/plot", func(w http.ResponseWriter, r *http.Request) {
		plots, err := wp.LatestPlots()
		if err != nil {
			http.Error(w, "no plots yet: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, plots["ensemble"])
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		for _, e := range p.AERO.Events() {
			fmt.Fprintf(w, "%s %-16s %-14s %s\n", e.Time.Format(time.RFC3339), e.Kind, e.Flow, e.Detail)
		}
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		dot, err := aero.ExportDOT(store, "osprey-daemon workflow")
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		fmt.Fprint(w, dot)
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		if group == nil {
			http.Error(w, "sharding disabled (start the daemon with -shards >= 2)", http.StatusNotFound)
			return
		}
		type member struct {
			Shard int         `json:"shard"`
			Addr  string      `json:"addr"`
			Dir   string      `json:"dir"`
			Stats emews.Stats `json:"stats"`
		}
		st := struct {
			Shards  int         `json:"shards"`
			Members []member    `json:"members"`
			Totals  emews.Stats `json:"totals"`
		}{Shards: group.Shards(), Totals: group.Stats()}
		for i := 0; i < group.Shards(); i++ {
			st.Members = append(st.Members, member{
				Shard: i, Addr: group.Addrs()[i], Dir: group.Dir(i), Stats: group.DB(i).Stats(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.Handle("/metrics", obs.Default().Handler())
	mux.Handle("/trace", obs.DefaultTracer().Handler())

	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		log.Printf("status on http://%s", *addr)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	log.Print("shutting down")
	_ = srv.Close()
}
