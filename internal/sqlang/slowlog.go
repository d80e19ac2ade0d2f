package sqlang

import (
	"sync"
	"time"
)

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	// SQL is the statement text when known (Exec / ExecStmtSQLCtx), otherwise
	// a statement-type summary.
	SQL      string
	Duration time.Duration
	// Plan is the plan text the statement produced, when it was a SELECT.
	Plan string
	At   time.Time
	// TraceID links the entry to its trace ("" when the statement ran
	// without tracing), so a slow statement can be looked up in /traces.
	TraceID string
}

// slowLogCap bounds the retained entries; older entries are dropped first.
const slowLogCap = 64

// slowLog is a bounded, newest-last log of slow statements.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowQuery
}

func (l *slowLog) add(q SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, q)
	if len(l.entries) > slowLogCap {
		l.entries = l.entries[len(l.entries)-slowLogCap:]
	}
}

func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, len(l.entries))
	copy(out, l.entries)
	return out
}

// SlowQueries returns the retained slow-query entries, oldest first. The
// log is populated only when SlowQueryThreshold is positive.
func (e *Engine) SlowQueries() []SlowQuery {
	return e.slow.snapshot()
}
