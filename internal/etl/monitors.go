package etl

import (
	"context"
	"fmt"
	"sync/atomic"

	"genalg/internal/sources"
)

// tickCounter issues logical detection timestamps.
var tickCounter atomic.Int64

func nextTick() int64 { return tickCounter.Add(1) }

// TriggerMonitor covers Figure 2's "active" column: the source pushes
// notifications through a subscription; Poll drains them.
type TriggerMonitor struct {
	name string
	ch   <-chan sources.Mutation
	stop func()
}

// NewTriggerMonitor subscribes to an active repository.
func NewTriggerMonitor(repo sources.Repository) (*TriggerMonitor, error) {
	ch, cancel, err := repo.Subscribe(4096)
	if err != nil {
		return nil, err
	}
	return &TriggerMonitor{name: repo.Name(), ch: ch, stop: cancel}, nil
}

// Name implements Detector.
func (m *TriggerMonitor) Name() string { return m.name + "/trigger" }

// Technique implements Detector.
func (m *TriggerMonitor) Technique() string { return "trigger" }

// Poll implements Detector. Triggers are push-based, so the poll only
// drains the local buffer and cannot block on the source.
func (m *TriggerMonitor) Poll(ctx context.Context) ([]Delta, error) {
	tick := nextTick()
	var out []Delta
	for {
		select {
		case mut, ok := <-m.ch:
			if !ok {
				return out, nil
			}
			out = append(out, Delta{
				Source: m.name, Kind: mut.Kind, ID: mut.ID,
				Before: mut.Before, After: mut.After, Tick: tick,
			})
		default:
			return out, nil
		}
	}
}

// Close unsubscribes.
func (m *TriggerMonitor) Close() { m.stop() }

// LogMonitor covers the "logged" column: it inspects the source's change
// log past the last seen sequence number.
type LogMonitor struct {
	repo    sources.Repository
	lastSeq int
}

// NewLogMonitor creates a monitor over a logged repository.
func NewLogMonitor(repo sources.Repository) (*LogMonitor, error) {
	if repo.Capability() != sources.CapLogged {
		return nil, fmt.Errorf("etl: %s is not a logged source", repo.Name())
	}
	return &LogMonitor{repo: repo}, nil
}

// Name implements Detector.
func (m *LogMonitor) Name() string { return m.repo.Name() + "/log" }

// Technique implements Detector.
func (m *LogMonitor) Technique() string { return "inspect-log" }

// Poll implements Detector. The cursor (lastSeq) only advances over
// entries actually returned, so a failed or truncated log read re-delivers
// the missing entries on the next successful poll.
func (m *LogMonitor) Poll(ctx context.Context) ([]Delta, error) {
	entries, err := m.repo.ReadLog(ctx, m.lastSeq)
	if err != nil {
		return nil, err
	}
	tick := nextTick()
	var out []Delta
	for _, e := range entries {
		d := Delta{Source: m.repo.Name(), Kind: e.Kind, ID: e.ID, Tick: tick}
		if e.Kind != sources.MutDelete {
			after := e.After
			d.After = &after
		}
		out = append(out, d)
		m.lastSeq = e.Seq
	}
	return out, nil
}

// SnapshotDiffMonitor covers the "queryable"/"non-queryable" x
// "relational" cell (snapshot differential): it polls full snapshots and
// computes keyed record differentials.
type SnapshotDiffMonitor struct {
	src  Snapshotter
	prev map[string]sources.Record
}

// NewSnapshotDiffMonitor primes the monitor with the source's current
// state (the initial snapshot produces no deltas; the warehouse's initial
// load uses the snapshot directly). The priming fetch honours ctx, so a
// cancelled or deadlined setup aborts instead of hanging on a slow source.
func NewSnapshotDiffMonitor(ctx context.Context, src Snapshotter) (*SnapshotDiffMonitor, error) {
	text, err := src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("etl: priming snapshot of %s: %w", src.Name(), err)
	}
	recs, err := sources.Parse(src.Format(), text)
	if err != nil {
		return nil, fmt.Errorf("etl: priming snapshot of %s: %w", src.Name(), err)
	}
	return &SnapshotDiffMonitor{src: src, prev: recordMap(recs)}, nil
}

// Name implements Detector.
func (m *SnapshotDiffMonitor) Name() string { return m.src.Name() + "/snapshot-differential" }

// Technique implements Detector.
func (m *SnapshotDiffMonitor) Technique() string { return "snapshot-differential" }

// Poll implements Detector. On any fetch or parse failure the previous
// snapshot is kept, so the missed changes reappear in the next diff.
func (m *SnapshotDiffMonitor) Poll(ctx context.Context) ([]Delta, error) {
	text, err := m.src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	recs, err := sources.Parse(m.src.Format(), text)
	if err != nil {
		return nil, err
	}
	cur := recordMap(recs)
	deltas := diffRecordMaps(m.src.Name(), nextTick(), m.prev, cur)
	m.prev = cur
	return deltas, nil
}

// LCSDiffMonitor covers the flat-file rows of Figure 2: it keeps the last
// snapshot text, computes a line-level LCS diff against the new dump, and
// re-parses only the records whose lines changed. This is the paper's
// "longest common subsequence approach, which is used in the UNIX diff
// command".
type LCSDiffMonitor struct {
	src      Snapshotter
	prevText string
	prevRecs map[string]sources.Record
	// LastEditDistance records the line-edit size of the most recent poll,
	// exposed for the Figure-2 experiment.
	LastEditDistance int
}

// NewLCSDiffMonitor primes the monitor with the current dump.
func NewLCSDiffMonitor(ctx context.Context, src Snapshotter) (*LCSDiffMonitor, error) {
	text, err := src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("etl: priming snapshot of %s: %w", src.Name(), err)
	}
	recs, err := sources.Parse(src.Format(), text)
	if err != nil {
		return nil, fmt.Errorf("etl: priming snapshot of %s: %w", src.Name(), err)
	}
	return &LCSDiffMonitor{src: src, prevText: text, prevRecs: recordMap(recs)}, nil
}

// Name implements Detector.
func (m *LCSDiffMonitor) Name() string { return m.src.Name() + "/lcs-diff" }

// Technique implements Detector.
func (m *LCSDiffMonitor) Technique() string { return "lcs-diff" }

// Poll implements Detector. Like the snapshot monitor, failures leave the
// previous text in place so no change is silently lost.
func (m *LCSDiffMonitor) Poll(ctx context.Context) ([]Delta, error) {
	text, err := m.src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	diff := Diff(m.prevText, text)
	m.LastEditDistance = diff.EditDistance()
	if m.LastEditDistance == 0 {
		m.prevText = text
		return nil, nil
	}
	// Attribute changed lines to records: records are line-contiguous in
	// every flat format, so re-parse both texts and compare only records
	// whose line spans intersect the changed sets. For simplicity and
	// correctness we re-parse the changed regions by full parse and keyed
	// comparison restricted to IDs owning changed lines.
	newRecs, err := sources.Parse(m.src.Format(), text)
	if err != nil {
		return nil, err
	}
	cur := recordMap(newRecs)
	changedIDs := map[string]bool{}
	collect := func(lines []string, idxs []int) {
		starts := recordStartLines(m.src.Format(), lines)
		for _, idx := range idxs {
			id := ""
			for _, s := range starts {
				if s.line <= idx {
					id = s.id
				} else {
					break
				}
			}
			if id != "" {
				changedIDs[id] = true
			}
		}
	}
	collect(diff.ALines, diff.ChangedA())
	collect(diff.BLines, diff.ChangedB())

	tick := nextTick()
	var out []Delta
	for id := range changedIDs {
		o, hadOld := m.prevRecs[id]
		n, hasNew := cur[id]
		switch {
		case hadOld && hasNew:
			if !o.Equal(n) || o.Version != n.Version {
				oc, nc := o, n
				out = append(out, Delta{Source: m.src.Name(), Kind: sources.MutUpdate, ID: id, Before: &oc, After: &nc, Tick: tick})
			}
		case hasNew:
			nc := n
			out = append(out, Delta{Source: m.src.Name(), Kind: sources.MutInsert, ID: id, After: &nc, Tick: tick})
		case hadOld:
			oc := o
			out = append(out, Delta{Source: m.src.Name(), Kind: sources.MutDelete, ID: id, Before: &oc, Tick: tick})
		}
	}
	sortDeltas(out)
	m.prevText = text
	m.prevRecs = cur
	return out, nil
}

type recStart struct {
	line int
	id   string
}

// recordStartLines locates the first line of each record in a rendered
// flat-file dump, with the record's ID.
func recordStartLines(f sources.Format, lines []string) []recStart {
	var out []recStart
	for i, line := range lines {
		switch f {
		case sources.FormatGenBank:
			if len(line) > 5 && line[:5] == "LOCUS" {
				fields := splitFields(line)
				if len(fields) >= 2 {
					out = append(out, recStart{line: i, id: fields[1]})
				}
			}
		case sources.FormatFASTA:
			if len(line) > 0 && line[0] == '>' {
				fields := splitFields(line[1:])
				if len(fields) >= 1 {
					out = append(out, recStart{line: i, id: fields[0]})
				}
			}
		}
	}
	return out
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' || s[i] == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(s[i])
	}
	return out
}

// TreeDiffMonitor covers the hierarchical rows: it parses the ACeDB dump
// into objects and diffs object-by-object (the paper's acediff/ordered-tree
// diff cell). Attribute-level change detail is recorded in ChangedAttrs.
type TreeDiffMonitor struct {
	src  Snapshotter
	prev map[string]sources.Record
	// ChangedAttrs maps record ID to the attribute names that changed in
	// the most recent poll.
	ChangedAttrs map[string][]string
}

// NewTreeDiffMonitor primes the monitor.
func NewTreeDiffMonitor(ctx context.Context, src Snapshotter) (*TreeDiffMonitor, error) {
	if src.Format() != sources.FormatACeDB {
		return nil, fmt.Errorf("etl: tree diff requires a hierarchical source, %s is %v", src.Name(), src.Format())
	}
	text, err := src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	recs, err := sources.Parse(src.Format(), text)
	if err != nil {
		return nil, err
	}
	return &TreeDiffMonitor{src: src, prev: recordMap(recs)}, nil
}

// Name implements Detector.
func (m *TreeDiffMonitor) Name() string { return m.src.Name() + "/tree-diff" }

// Technique implements Detector.
func (m *TreeDiffMonitor) Technique() string { return "tree-diff" }

// Poll implements Detector.
func (m *TreeDiffMonitor) Poll(ctx context.Context) ([]Delta, error) {
	text, err := m.src.Fetch(ctx)
	if err != nil {
		return nil, err
	}
	recs, err := sources.Parse(m.src.Format(), text)
	if err != nil {
		return nil, err
	}
	cur := recordMap(recs)
	m.ChangedAttrs = map[string][]string{}
	deltas := diffRecordMaps(m.src.Name(), nextTick(), m.prev, cur)
	for _, d := range deltas {
		if d.Kind != sources.MutUpdate {
			continue
		}
		var attrs []string
		if d.Before.Organism != d.After.Organism {
			attrs = append(attrs, "Organism")
		}
		if d.Before.Description != d.After.Description {
			attrs = append(attrs, "Description")
		}
		if d.Before.Sequence != d.After.Sequence {
			attrs = append(attrs, "DNA")
		}
		if d.Before.ExonSpec != d.After.ExonSpec {
			attrs = append(attrs, "Exons")
		}
		if d.Before.Quality != d.After.Quality {
			attrs = append(attrs, "Quality")
		}
		if d.Before.Version != d.After.Version {
			attrs = append(attrs, "Version")
		}
		m.ChangedAttrs[d.ID] = attrs
	}
	m.prev = cur
	return deltas, nil
}

// ForRepo picks the Figure-2-appropriate detector for a repository:
// triggers for active sources, log inspection for logged ones, snapshot
// differential for queryable relational sources, LCS diff for flat files,
// and tree diff for hierarchical dumps.
func ForRepo(repo sources.Repository) (Detector, error) {
	switch repo.Capability() {
	case sources.CapActive:
		return NewTriggerMonitor(repo)
	case sources.CapLogged:
		return NewLogMonitor(repo)
	}
	switch repo.Format() {
	case sources.FormatCSV:
		return NewSnapshotDiffMonitor(context.Background(), repo)
	case sources.FormatACeDB:
		return NewTreeDiffMonitor(context.Background(), repo)
	default:
		return NewLCSDiffMonitor(context.Background(), repo)
	}
}
