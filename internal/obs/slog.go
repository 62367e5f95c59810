package obs

import (
	"context"
	"log/slog"
	"time"
)

// Slog bridges the event stream to a standard library structured
// logger: run-level events (map brackets, phase ends, budget trips,
// degradations, arena stats) log at Info, per-tree chatter (solves,
// memo hits, per-LUT detail) at Debug — so a logger at Info
// narrates a run in a dozen lines and -v opens the firehose. Like every
// sink it is passive, and slog.Logger is concurrency-safe, so the
// bridge needs no locking of its own.
type Slog struct {
	l *slog.Logger
}

// NewSlogObserver returns an Observer that logs events through l
// (slog.Default() when nil).
func NewSlogObserver(l *slog.Logger) *Slog {
	if l == nil {
		l = slog.Default()
	}
	return &Slog{l: l}
}

func eventLevel(k Kind) slog.Level {
	switch k {
	case KindMapStart, KindMapEnd, KindPhaseEnd, KindBudgetExhausted,
		KindTreeDegraded, KindArenaStats:
		return slog.LevelInfo
	default:
		return slog.LevelDebug
	}
}

// Observe logs one event, attaching only the fields its kind defines.
func (s *Slog) Observe(e Event) {
	lvl := eventLevel(e.Kind)
	if !s.l.Enabled(context.Background(), lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 6)
	add := func(a slog.Attr) { attrs = append(attrs, a) }
	switch e.Kind {
	case KindMapStart:
		add(slog.Int("k", e.K))
		add(slog.Int("nodes", e.N))
	case KindMapEnd:
		add(slog.Int("luts", e.Cost))
		add(slog.Int("depth", e.Depth))
		add(slog.Int("trees", e.N))
	case KindPhaseStart:
		add(slog.String("phase", e.Phase))
	case KindPhaseEnd:
		add(slog.String("phase", e.Phase))
		add(slog.Duration("wall", time.Duration(e.Units)))
	case KindTreeSolve:
		add(slog.String("tree", e.Tree))
		add(slog.Int64("units", e.Units))
		add(slog.Int("cost", e.Cost))
		if e.Dur > 0 {
			add(slog.Duration("dur", e.Dur))
		}
	case KindMemoHit, KindTreeDegraded:
		add(slog.String("tree", e.Tree))
		add(slog.Int("cost", e.Cost))
	case KindDupAccepted:
		add(slog.String("tree", e.Tree))
	case KindBudgetExhausted:
		add(slog.String("tree", e.Tree))
		add(slog.Int64("budget", e.Units))
	case KindLUT:
		add(slog.String("lut", e.Tree))
		add(slog.Int("inputs", e.N))
		add(slog.Int("level", e.Depth))
	case KindArenaStats:
		add(slog.Int("arenas", e.N))
		add(slog.Int64("slab_bytes", e.Units))
	}
	s.l.LogAttrs(context.Background(), lvl, e.Kind.String(), attrs...)
}
