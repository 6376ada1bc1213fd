package planner

import (
	"repro/internal/core"
)

// SyncSession reconciles an incremental solver session against a full
// Feedback view. It is the bridge between the Feedback-shaped world
// (serving engines, WAL recovery, the cluster coordinator's merged
// barrier view) and core.Session's typed journal: the session diffs the
// view against its own state and dirties only the candidates whose
// groups, items, or time steps actually changed — in either direction,
// so a crash-recovered view that lost events converges too. After
// SyncSession, session.Solve() is byte-identical to solving
// Residual(base, fb) from scratch.
func SyncSession(s *core.Session, fb Feedback) {
	s.LoadFeedback(fb.Users, fb.Stock, fb.Now)
}
