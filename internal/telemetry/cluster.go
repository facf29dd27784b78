package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"phish/internal/stats"
	"phish/internal/wire"
)

// WorkerRow is one worker's slice of the cluster rollup: its latest
// piggybacked StatReport, decoded.
type WorkerRow struct {
	Worker int   `json:"worker"`
	Live   bool  `json:"live"`
	Deque  int32 `json:"deque"`
	AgeMS  int64 `json:"age_ms"` // since the last report arrived
	// PhiMilli is the phi-accrual suspicion score ×1000 (0 when the
	// detector is off or the worker's inter-arrival history is cold).
	PhiMilli int32 `json:"phi_milli,omitempty"`
	// Suspect carries the graded-health verdict and its reason ("phi",
	// "exec-rate", "steal-rtt"); empty when healthy.
	Suspect string         `json:"suspect,omitempty"`
	Stats   stats.Snapshot `json:"stats"`
}

// ClusterSnapshot is the clearinghouse's whole-job rollup: per-worker rows,
// job totals (stats.JobTotals semantics), and per-kind merged histograms.
// It is what /cluster.json serves and what phishtop renders.
type ClusterSnapshot struct {
	Job     int64                   `json:"job"`
	Program string                  `json:"program"`
	Epoch   uint64                  `json:"epoch"`
	Live    int                     `json:"live"`
	Workers []WorkerRow             `json:"workers"`
	Totals  stats.Snapshot          `json:"totals"`
	Hists   map[string]HistSnapshot `json:"hists,omitempty"`
}

// BuildClusterSnapshot assembles the rollup from per-worker rows and their
// raw histogram states. Rows are sorted by worker id; totals aggregate the
// rows the way the paper's Table 2 does.
func BuildClusterSnapshot(job int64, program string, epoch uint64, live int,
	rows []WorkerRow, hists [][]wire.HistState) ClusterSnapshot {

	sort.Slice(rows, func(i, j int) bool { return rows[i].Worker < rows[j].Worker })
	snaps := make([]stats.Snapshot, len(rows))
	for i, r := range rows {
		snaps[i] = r.Stats
		snaps[i].Worker = r.Worker
	}
	cs := ClusterSnapshot{
		Job: job, Program: program, Epoch: epoch, Live: live,
		Workers: rows,
		Totals:  stats.JobTotals(snaps),
	}
	merged := MergeStates(hists)
	if len(merged) > 0 {
		cs.Hists = make(map[string]HistSnapshot, len(merged))
		for k, s := range merged {
			cs.Hists[k.Name()] = s
		}
	}
	return cs
}

// WriteClusterProm renders the rollup as Prometheus text exposition:
// whole-job totals under phish_*, per-worker gauges labeled worker="id",
// and the merged latency histograms with p50/p90/p99 summary gauges.
func WriteClusterProm(w io.Writer, cs ClusterSnapshot) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# TYPE phish_epoch gauge\n")
	writeSample(bw, "phish_epoch", nil, int64(cs.Epoch))
	fmt.Fprintf(bw, "# TYPE phish_live_workers gauge\n")
	writeSample(bw, "phish_live_workers", nil, int64(cs.Live))
	fmt.Fprintf(bw, "# TYPE phish_workers_reporting gauge\n")
	writeSample(bw, "phish_workers_reporting", nil, int64(len(cs.Workers)))

	// Whole-job totals, one family per stats counter.
	totals := cs.Totals.Ordered()
	for i, name := range stats.OrderedNames {
		typ := typeGauge
		if isCounterName(name) {
			typ = typeCounter
		}
		fmt.Fprintf(bw, "# TYPE %s%s %s\n", Prefix, name, typ)
		writeSample(bw, Prefix+name, nil, totals[i])
	}

	// Per-worker gauges for the live table.
	perWorker := []struct {
		name string
		typ  string
		get  func(WorkerRow) int64
	}{
		{"phish_worker_deque_depth", typeGauge, func(r WorkerRow) int64 { return int64(r.Deque) }},
		{"phish_worker_live", typeGauge, func(r WorkerRow) int64 {
			if r.Live {
				return 1
			}
			return 0
		}},
		{"phish_worker_report_age_ms", typeGauge, func(r WorkerRow) int64 { return r.AgeMS }},
		{"phish_worker_tasks_executed_total", typeCounter, func(r WorkerRow) int64 { return r.Stats.TasksExecuted }},
		{"phish_worker_tasks_stolen_total", typeCounter, func(r WorkerRow) int64 { return r.Stats.TasksStolen }},
		{"phish_worker_steal_failures_total", typeCounter, func(r WorkerRow) int64 { return r.Stats.FailedSteals }},
		{"phish_worker_tasks_redone_total", typeCounter, func(r WorkerRow) int64 { return r.Stats.TasksRedone }},
		{"phish_worker_mailbox_depth_max", typeGauge, func(r WorkerRow) int64 { return r.Stats.MailboxDepthMax }},
		{"phish_worker_phi_milli", typeGauge, func(r WorkerRow) int64 { return int64(r.PhiMilli) }},
		{"phish_worker_suspect", typeGauge, func(r WorkerRow) int64 {
			if r.Suspect != "" {
				return 1
			}
			return 0
		}},
	}
	for _, pw := range perWorker {
		fmt.Fprintf(bw, "# TYPE %s %s\n", pw.name, pw.typ)
		for _, row := range cs.Workers {
			writeSample(bw, pw.name, []Label{{"worker", strconv.Itoa(row.Worker)}}, pw.get(row))
		}
	}

	// Merged histograms, in kind order for deterministic output.
	names := make([]string, 0, len(cs.Hists))
	for name := range cs.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := cs.Hists[name]
		if len(s.Bounds) > 0 {
			fmt.Fprintf(bw, "# TYPE %s%s histogram\n", Prefix, name)
			writeHistProm(bw, Prefix+name, nil, s)
		}
		fmt.Fprintf(bw, "# TYPE %s%s_q gauge\n", Prefix, name)
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}} {
			writeSample(bw, Prefix+name+"_q", []Label{{"q", q.label}}, s.Quantile(q.q))
		}
	}
	return bw.Flush()
}

// RenderTop formats the rollup as the phishtop live table. prev, when
// non-nil, is the previous poll's snapshot and dt the interval between
// them; steal and execution rates are derived from the difference.
func RenderTop(cs ClusterSnapshot, prev *ClusterSnapshot, dt time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "phishtop — job %d (%s)  epoch %d  %d live / %d reporting\n",
		cs.Job, cs.Program, cs.Epoch, cs.Live, len(cs.Workers))
	t := cs.Totals
	fmt.Fprintf(&sb, "totals: exec %d  stolen %d  attempts %d  fails %d  redone %d  migrated %d  synchs %d  inbox max %d\n",
		t.TasksExecuted, t.TasksStolen, t.StealAttempts, t.FailedSteals,
		t.TasksRedone, t.TasksMigrated, t.Synchronizations, t.MailboxDepthMax)
	if t.Retransmits != 0 || t.PeerGoneReports != 0 || t.ReRegistrations != 0 || t.RedoBatches != 0 {
		fmt.Fprintf(&sb, "faults: retransmits %d  peer-gone %d  re-registrations %d  redo batches %d  journal recs %d\n",
			t.Retransmits, t.PeerGoneReports, t.ReRegistrations, t.RedoBatches, t.JournalRecords)
	}
	if prev != nil && dt > 0 {
		sec := dt.Seconds()
		p := prev.Totals
		fmt.Fprintf(&sb, "rates:  exec %.0f/s  steals %.0f/s  attempts %.0f/s  fails %.0f/s\n",
			float64(t.TasksExecuted-p.TasksExecuted)/sec,
			float64(t.TasksStolen-p.TasksStolen)/sec,
			float64(t.StealAttempts-p.StealAttempts)/sec,
			float64(t.FailedSteals-p.FailedSteals)/sec)
	}
	for _, name := range []string{HistStealRTT.Name(), HistTaskExec.Name()} {
		if h, ok := cs.Hists[name]; ok && h.Count > 0 {
			fmt.Fprintf(&sb, "%-22s p50 %-10v p90 %-10v p99 %-10v n=%d\n", name,
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.9)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
				h.Count)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%6s %4s %5s %9s %8s %9s %7s %6s %7s %6s %6s %6s %-9s\n",
		"WORKER", "LIVE", "DEQ", "EXEC", "STOLEN", "ATTEMPTS", "FAILS", "REDO", "MSGS", "INBOX", "AGE", "PHI", "SUSPECT")
	for _, r := range cs.Workers {
		live := "-"
		if r.Live {
			live = "y"
		}
		suspect := r.Suspect
		if suspect == "" {
			suspect = "-"
		}
		fmt.Fprintf(&sb, "%6d %4s %5d %9d %8d %9d %7d %6d %7d %6d %5.1fs %6.2f %-9s\n",
			r.Worker, live, r.Deque,
			r.Stats.TasksExecuted, r.Stats.TasksStolen, r.Stats.StealAttempts,
			r.Stats.FailedSteals, r.Stats.TasksRedone, r.Stats.MessagesSent,
			r.Stats.MailboxDepthMax, float64(r.AgeMS)/1000, float64(r.PhiMilli)/1000, suspect)
	}
	return sb.String()
}
