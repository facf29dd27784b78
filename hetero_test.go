package phish_test

import (
	"testing"
	"time"

	"phish"
	"phish/internal/apps/fib"
)

// Tests for the heterogeneous-network extension (the paper's stated
// future work: "preserve locality with respect to those network cuts that
// have the least bandwidth"). Two sites of workers are separated by a
// high-latency cut; the site-aware steal policy must keep computing the
// right answers while crossing the cut less than blind random stealing
// does.

func TestTwoSitesCorrectness(t *testing.T) {
	cfg := phish.DefaultWorkerConfig()
	cfg.Victim = phish.SiteAwareVictim
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(22),
		phish.LocalOptions{
			Workers:          6,
			Config:           cfg,
			Sites:            2,
			InterSiteLatency: 500 * time.Microsecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Value.(int64), fib.Serial(22); got != want {
		t.Errorf("fib(22) across 2 sites = %d, want %d", got, want)
	}
	if got, want := res.Totals.TasksExecuted, fib.TaskCount(22); got != want {
		t.Errorf("tasks = %d, want %d", got, want)
	}
}

func TestSiteAwareStealsPreferHome(t *testing.T) {
	// Average over a few runs: site-aware stealing should cross the cut
	// for a smaller share of its steals than blind random stealing.
	// (Random picks a remote victim with probability m/(n-1) every time;
	// site-aware only after four consecutive local failures.)
	measure := func(cfg phish.WorkerConfig) (remote, total int64) {
		for i := 0; i < 3; i++ {
			res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(24),
				phish.LocalOptions{
					Workers:          8,
					Config:           cfg,
					Sites:            2,
					InterSiteLatency: time.Millisecond,
				})
			if err != nil {
				t.Fatal(err)
			}
			remote += res.Totals.RemoteSteals
			total += res.Totals.TasksStolen
		}
		return remote, total
	}

	random := phish.DefaultWorkerConfig()
	aware := phish.DefaultWorkerConfig()
	aware.Victim = phish.SiteAwareVictim

	rRemote, rTotal := measure(random)
	aRemote, aTotal := measure(aware)
	t.Logf("random: %d/%d remote steals; site-aware: %d/%d", rRemote, rTotal, aRemote, aTotal)
	if rTotal == 0 || aTotal == 0 {
		t.Skip("too few steals to compare on this run")
	}
	randShare := float64(rRemote) / float64(rTotal)
	awareShare := float64(aRemote) / float64(aTotal)
	if awareShare > randShare+0.10 {
		t.Errorf("site-aware crossed the cut more than random: %.2f vs %.2f", awareShare, randShare)
	}
}

func TestSingleSiteDegeneratesToRandom(t *testing.T) {
	// Site-aware with everyone at one site must behave like random
	// stealing and stay correct.
	cfg := phish.DefaultWorkerConfig()
	cfg.Victim = phish.SiteAwareVictim
	res, err := phish.RunLocal(fib.Program(), fib.Root, fib.RootArgs(18),
		phish.LocalOptions{Workers: 4, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Value.(int64), fib.Serial(18); got != want {
		t.Errorf("fib(18) = %d, want %d", got, want)
	}
	if res.Totals.RemoteSteals != 0 {
		t.Errorf("one site, yet %d steals counted as remote", res.Totals.RemoteSteals)
	}
}
