package main

import (
	"context"
	"fmt"
	"time"
)

// check is the correctness gate: a run reports numbers only when every
// request outside the ladder got its designed status, the server's books
// match the generator's, the final audit is clean and complete, a crash
// loses nothing acknowledged and invents nothing unattempted, and
// (routed) the follower converges on the leader.
func check(ctx context.Context, res *result, in *inputs, top *topology, t tally, f *fleet) error {
	// The ladder's rungs probe overload: a failure there only ends the
	// climb (rungHolds). Everywhere else it fails the run.
	for _, ph := range in.phases {
		if n := t.failedIn[ph.Name]; n > 0 && !ph.rung() {
			res.fail("%d requests of phase %s did not get the status they were generated to get", n, ph.Name)
		}
	}

	var st struct {
		Issued            int `json:"issued"`
		Revoked           int `json:"revoked"`
		Transferred       int `json:"transferred"`
		RejectedInstance  int `json:"rejected_instance"`
		RejectedAggregate int `json:"rejected_aggregate"`
	}
	if err := top.primary.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	for _, c := range []struct {
		what        string
		server, got int
	}{
		{"issue 2xx", st.Issued, t.ok[verbIssue]},
		{"revoke 2xx", st.Revoked, t.ok[verbRevoke]},
		{"transfer 2xx", st.Transferred, t.ok[verbTransfer]},
		{"issue 409", st.RejectedAggregate, t.refused[409]},
		{"issue 422", st.RejectedInstance, t.refused[422]},
	} {
		if c.server != c.got {
			res.fail("%s: server /v1/stats says %d, generator tallied %d", c.what, c.server, c.got)
		}
	}

	if top.follower != nil {
		var l, fr roleInfo
		err := top.follower.waitUntil(ctx, 30*time.Second, "caught up with the leader", func() bool {
			return top.primary.getJSON("/v1/repl/role", &l) == nil &&
				top.follower.getJSON("/v1/repl/role", &fr) == nil && fr.Seq == l.Seq
		})
		if err != nil {
			res.fail("follower seq %d, leader seq %d: %v", fr.Seq, l.Seq, err)
		}
	}

	var audit struct {
		OK        bool  `json:"ok"`
		Complete  bool  `json:"complete"`
		Equations int64 `json:"equations"`
	}
	if err := top.primary.getJSON("/v1/audit", &audit); err != nil {
		res.fail("final audit: %v", err)
	} else if !audit.OK || !audit.Complete {
		res.fail("final audit: ok=%v complete=%v", audit.OK, audit.Complete)
	}

	// Crash: kill -9 the writer, restart over the same WAL, and count
	// what recovery holds.
	acked, attempted := 0, t.writes
	for _, v := range []string{verbIssue, verbRevoke, verbTransfer} {
		acked += t.ok[v]
	}
	top.primary.kill()
	port, err := freePort()
	if err != nil {
		return err
	}
	sv, err := f.start("restart", port, "-corpus", in.corpusPath, "-log-backend", "wal", "-log", top.walDir)
	if err != nil {
		return err
	}
	defer sv.kill()
	if err := sv.waitUntil(ctx, 120*time.Second, "ready after restart", sv.ready); err != nil {
		return err
	}
	var ri roleInfo
	if err := sv.getJSON("/v1/repl/role", &ri); err != nil {
		return err
	}
	lo, hi := uint64(in.priors+acked), uint64(in.priors+attempted)
	if ri.Seq < lo || ri.Seq > hi {
		res.fail("recovered %d records after kill -9, want within [priors+acked, priors+attempted] = [%d, %d]", ri.Seq, lo, hi)
	}
	res.info("recovered_records", float64(ri.Seq), "count",
		fmt.Sprintf("after kill -9; priors+acked %d, priors+attempted %d", lo, hi))
	res.info("audit_equations", float64(audit.Equations), "count", "final GET /v1/audit")
	return nil
}
