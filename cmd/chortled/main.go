// Command chortled is a long-running Chortle mapping server: it keeps
// one cross-run shape cache warm across HTTP requests, so repeated
// mappings of similar networks run at warm-cache speed.
//
// Usage:
//
//	chortled [-addr :8080] [-debug-addr :6060] [-k 4]
//	         [-cache-entries N] [-cache-mb MB] [-cache-shards N]
//	         [-max-inflight N] [-queue N] [-drain-timeout 10s]
//	         [-cache-snapshot PATH] [-snapshot-interval 5m]
//	         [-mem-watermark-mb MB] [-chaos SEED]
//	         [-access-log PATH] [-request-ring N]
//
// Endpoints:
//
//	POST /map      raw BLIF body (?k=4&budget_work_units=N&deadline_ms=N)
//	               or JSON {"blif","k","budget_work_units","deadline_ms"};
//	               responds with the mapped circuit and cache statistics
//	               as JSON, or with Accept: application/vnd.chortle.map
//	               as a JSON metadata line followed by the BLIF verbatim
//	GET  /healthz  liveness; 503 once draining
//	GET  /stats    shared-cache statistics plus a per-engine request
//	               breakdown (outcome classes, solve p50/p95) as JSON
//	GET  /metrics  Prometheus text (request series, mapper phase series,
//	               chortle_shape_cache_* gauges); OpenMetrics with
//	               trace-ID exemplars when Accept asks for it
//	GET  /debug/requests   live in-flight table plus a bounded ring of
//	               recent requests with span timelines (?format=html for
//	               a self-contained view)
//
// Every request is traced: the trace ID arrives in a W3C traceparent
// header (the client package sends one) or is generated at admission,
// and is echoed in the X-Trace-Id response header and the response
// body. -access-log streams one JSON line per finished request — trace
// ID, engine, outcome class, queue/solve/write timings, cache hits —
// with the request's span timeline embedded; feed the log (optionally
// merged with client-side -trace-out spans) to chortle-traceview for a
// multi-process Perfetto timeline. -request-ring bounds the
// /debug/requests recent ring (default 64).
//
// At most -max-inflight requests map concurrently; -queue more wait for
// a slot and anything beyond that is refused with 429 (every 429/503
// carries Retry-After). Requests carrying deadline_ms are re-checked on
// dequeue: an expired deadline answers 504 without burning the slot,
// and one that cannot cover the observed p95 solve time is refused with
// 503. A panicking request becomes a 500 plus an incident log, never a
// dead server.
//
// -cache-snapshot persists the shape cache: restored (if valid) at
// boot, rewritten atomically every -snapshot-interval and once more at
// drain. A corrupted or incompatible snapshot is rejected wholesale
// (counted as chortle_snapshot_rejected) and the server boots cold.
//
// -mem-watermark-mb engages a memory-pressure valve: above the
// watermark the server sheds half the cache and stops queueing until
// the heap recedes. -chaos SEED injects seeded faults (latency spikes,
// solve panics, forced evictions, snapshot I/O errors) for resilience
// testing — never use it in production.
//
// SIGINT/SIGTERM starts a staged drain: new work is refused, in-flight
// mappings run to completion up to -drain-timeout, then remaining
// connections are force-closed; the in-flight count is logged at each
// stage. -debug-addr additionally serves the pprof/expvar debug mux
// sharing the same registry. The bound address is printed on stdout
// ("listening on ...") so scripts can use -addr :0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"chortle"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "host:port to serve on (:0 picks a free port)")
		debugAddr    = flag.String("debug-addr", "", "also serve /debug/pprof and /debug/vars on this host:port")
		defaultK     = flag.Int("k", 4, "default lookup table input count when a request names none")
		cacheEntries = flag.Int("cache-entries", 0, "shape cache entry bound (0 = default 65536)")
		cacheMB      = flag.Int("cache-mb", 0, "shape cache byte bound in MiB (0 = default 256)")
		cacheShards  = flag.Int("cache-shards", 0, "shape cache shard count, rounded to a power of two (0 = default 16)")
		maxInflight  = flag.Int("max-inflight", 4, "mapping requests served concurrently")
		queue        = flag.Int("queue", 16, "requests allowed to wait for a slot before 429")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight mappings on SIGINT/SIGTERM before force-close")
		snapPath     = flag.String("cache-snapshot", "", "persist the shape cache to this file (restore at boot, rewrite periodically and at drain)")
		snapEvery    = flag.Duration("snapshot-interval", 5*time.Minute, "how often to rewrite -cache-snapshot")
		memMB        = flag.Int64("mem-watermark-mb", 0, "live-heap watermark in MiB for the memory-pressure valve (0 = off)")
		chaosSeed    = flag.Int64("chaos", 0, "inject seeded faults for resilience testing (0 = off; never use in production)")
		accessPath   = flag.String("access-log", "", "append one JSON line per finished request (trace ID, outcome, timings, spans) to this file; - for stdout")
		requestRing  = flag.Int("request-ring", 0, "recent requests retained by /debug/requests (0 = default 64)")
		pmDir        = flag.String("postmortem-dir", "", "write postmortem bundles (flight ring, metrics, goroutines, heap, build info) to this directory on panic-500, memory-valve engagement, snapshot rejection, SLO burn, or SIGQUIT")
		flightCap    = flag.Int("flight-ring", 0, "flight recorder ring capacity in entries (0 = default 4096)")
		flightAge    = flag.Duration("flight-retention", 0, "drop flight-ring entries older than this at snapshot time (0 = capacity-bounded only)")
		sloSpec      = flag.String("slo", "", `declared SLOs, e.g. "availability=99.9,p95_solve_ms=250"; evaluated as multi-window burn rates`)
		sloEvery     = flag.Duration("slo-eval", 10*time.Second, "SLO burn-rate evaluation interval")
		profEvery    = flag.Duration("profile-interval", 0, "capture a CPU+heap profile set this often into <postmortem-dir>/profiles (0 = off; requires -postmortem-dir)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		chortle.PrintVersion(os.Stdout, "chortled")
		return
	}

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	var accessLog *accessLogger
	if *accessPath == "-" {
		accessLog = newAccessLogger(os.Stdout)
	} else if *accessPath != "" {
		f, err := os.OpenFile(*accessPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		accessLog = newAccessLogger(f)
	}

	reg := chortle.NewMetricsRegistry()
	chortle.RegisterBuildInfo(reg, "chortled_build_info")
	cache := chortle.NewSharedCache(chortle.SharedCacheConfig{
		Shards:     *cacheShards,
		MaxEntries: *cacheEntries,
		MaxBytes:   int64(*cacheMB) << 20,
	})
	var chaos *chaosInjector
	if *chaosSeed != 0 {
		chaos = newChaosInjector(*chaosSeed, cache, reg)
		logf("chortled: CHAOS MODE (seed %d): injecting faults on purpose", *chaosSeed)
	}

	// The flight recorder is always on: its cost is one ring slot per
	// event, and the first question after any incident is "what was
	// happening right before".
	recorder := chortle.NewFlightRecorder(*flightCap, *flightAge)
	recorder.RecordNote("chortled starting: " + chortle.BuildVersion())

	var dump *dumper
	var prof *profiler
	if *pmDir != "" {
		if err := os.MkdirAll(*pmDir, 0o755); err != nil {
			fatal(err)
		}
		dump = newDumper(*pmDir, recorder, reg, logf)
		dump.flags = strings.Join(os.Args[1:], " ")
	}

	var slo *chortle.SLOWatchdog
	if *sloSpec != "" {
		slos, err := chortle.ParseSLOs(*sloSpec)
		if err != nil {
			fatal(err)
		}
		slo = chortle.NewSLOWatchdog(slos, reg, chortle.SLOConfig{
			Logf: logf,
			// A burn-triggered dump catches the offending window while
			// it is still in the flight ring.
			OnChange: func(status chortle.SLOStatus, _ []chortle.SLOReport) {
				recorder.RecordNote("SLO status now " + status.String())
				if status == chortle.SLOCritical {
					dump.trigger("slo-burn")
				}
			},
		})
		dump.setSLO(slo)
	}

	srv, m := newMapServer(serverConfig{
		cache:        cache,
		reg:          reg,
		maxInflight:  *maxInflight,
		maxQueue:     *queue,
		defaultK:     *defaultK,
		memWatermark: *memMB << 20,
		chaos:        chaos,
		logf:         logf,
		accessLog:    accessLog,
		requestRing:  *requestRing,
		recorder:     recorder,
		slo:          slo,
		dumper:       dump,
	})

	bg, stopBg := context.WithCancel(context.Background())
	defer stopBg()

	if *profEvery > 0 {
		if *pmDir == "" {
			fatal(fmt.Errorf("-profile-interval requires -postmortem-dir (the profile ring lives under it)"))
		}
		prof = newProfiler(filepath.Join(*pmDir, "profiles"), *profEvery,
			srv.requests.activeTraces, reg, logf)
		dump.prof = prof
		srv.cfg.profiler = prof
		go prof.run(bg.Done())
	}
	if slo != nil {
		go slo.Run(bg.Done(), *sloEvery)
	}

	var snap *snapshotter
	if *snapPath != "" {
		snap = newSnapshotter(*snapPath, cache, chaos, m, reg, logf)
		snap.onReject = func(detail string) {
			recorder.RecordNote("cache snapshot rejected: " + detail)
			dump.trigger("snapshot-rejected")
		}
		snap.restore()
		go snap.loop(bg, *snapEvery)
	}
	if *memMB > 0 {
		go srv.runMemValve(bg, m, time.Second)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{
		Handler:           srv.handler(m),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *debugAddr != "" {
		dbg, err := chortle.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		logf("debug server on http://%s", dbg.Addr())
		defer dbg.Shutdown(context.Background())
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if dump != nil {
		// SIGQUIT becomes "write a bundle and keep serving" — the
		// operator's on-demand black-box pull. Only claimed when a
		// postmortem dir exists, so the default stack-dump-and-exit
		// behavior survives otherwise.
		signal.Notify(sig, syscall.SIGQUIT)
	}
wait:
	for {
		select {
		case err := <-errc:
			fatal(err)
		case s := <-sig:
			if s == syscall.SIGQUIT {
				logf("chortled: SIGQUIT: writing postmortem bundle")
				recorder.RecordNote("SIGQUIT received")
				dump.trigger("sigquit")
				continue
			}
			logf("chortled: %s: drain starting (%d in flight, %d queued; up to %s)",
				s, srv.inflight.Load(), srv.queued.Load(), *drainWait)
			break wait
		}
	}

	// Staged drain: refuse new work, let in-flight mappings finish
	// within the grace period, then force-close whatever remains so the
	// process always exits by -drain-timeout (plus a final snapshot).
	srv.drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logf("chortled: drain deadline hit with %d still in flight; force-closing: %v",
			srv.inflight.Load(), err)
		hs.Close()
	} else {
		logf("chortled: drain complete (0 in flight)")
	}
	stopBg()
	if snap != nil {
		if err := snap.write(); err == nil {
			logf("chortled: final snapshot written to %s", *snapPath)
		}
	}
	st := cache.Stats()
	logf("chortled: drained; cache hits=%d misses=%d entries=%d bytes=%d",
		st.Hits, st.Misses, st.Entries, st.Bytes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chortled:", err)
	os.Exit(1)
}
