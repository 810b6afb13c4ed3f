package detect

import (
	"math"
	"testing"
)

func TestFixedTimeoutSuspectsAfterSilence(t *testing.T) {
	d := New(Config{Timeout: 10}, []int32{1, 2, 3}, 0)
	if got := d.Check(5); len(got) != 0 {
		t.Fatalf("suspected %v before the timeout", got)
	}
	d.Heard(2, 8)
	got := d.Check(11)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("suspects = %v, want [1 3]", got)
	}
	if d.Suspected(2) {
		t.Fatal("recently heard neighbor suspected")
	}
	// Already-suspected neighbors are not reported again.
	if got := d.Check(12); len(got) != 0 {
		t.Fatalf("re-reported suspects %v", got)
	}
	if d.Suspicions != 2 {
		t.Fatalf("Suspicions = %d, want 2", d.Suspicions)
	}
}

func TestReintegrationOnResumedTraffic(t *testing.T) {
	d := New(Config{Timeout: 10}, []int32{7}, 0)
	if d.Heard(7, 5) {
		t.Fatal("reintegration reported for a live neighbor")
	}
	d.Check(20)
	if !d.Suspected(7) {
		t.Fatal("neighbor not suspected after silence")
	}
	if !d.Heard(7, 25) {
		t.Fatal("resumed traffic did not reintegrate")
	}
	if d.Suspected(7) || d.Reintegrations != 1 {
		t.Fatalf("suspected=%v reintegrations=%d after resume", d.Suspected(7), d.Reintegrations)
	}
	// The cycle can repeat.
	d.Check(40)
	if !d.Suspected(7) {
		t.Fatal("neighbor not re-suspected after renewed silence")
	}
	if d.Suspicions != 2 {
		t.Fatalf("Suspicions = %d, want 2", d.Suspicions)
	}
}

func TestRemoveIsPermanent(t *testing.T) {
	d := New(Config{Timeout: 10}, []int32{1, 2}, 0)
	d.Remove(1)
	if got := d.Check(100); len(got) != 1 || got[0] != 2 {
		t.Fatalf("suspects = %v, want [2]", got)
	}
	if d.Heard(1, 101) {
		t.Fatal("removed neighbor reintegrated")
	}
	if !d.Removed(1) || d.Removed(2) {
		t.Fatal("Removed state wrong")
	}
	if got := d.Suspects(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Suspects = %v, want [2]", got)
	}
}

func TestUnknownNeighborIgnored(t *testing.T) {
	d := New(Config{Timeout: 10}, []int32{1}, 0)
	if d.Heard(99, 5) {
		t.Fatal("unknown neighbor reintegrated")
	}
	if d.Suspected(99) {
		t.Fatal("unknown neighbor suspected")
	}
}

func TestPhiGrowsWithSilence(t *testing.T) {
	d := New(Config{Policy: PhiAccrual, Timeout: 50, PhiThreshold: 6}, []int32{1}, 0)
	// Regular heartbeats every 1 time unit.
	for now := 1.0; now <= 20; now++ {
		d.Heard(1, now)
	}
	phiShort := d.Phi(1, 21)
	phiLong := d.Phi(1, 30)
	if !(phiLong > phiShort) {
		t.Fatalf("phi not increasing: phi(1)=%g phi(10)=%g", phiShort, phiLong)
	}
	if got := d.Check(21.5); len(got) != 0 {
		t.Fatalf("suspected %v after ~1 missed heartbeat", got)
	}
	got := d.Check(60)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("long silence not suspected: %v (phi=%g)", got, d.Phi(1, 60))
	}
}

func TestPhiAdaptsToCadence(t *testing.T) {
	// A slow link (heartbeats every 10 units) must tolerate silences
	// that would damn a fast link (heartbeats every 1 unit).
	mk := func(period float64) *Detector {
		d := New(Config{Policy: PhiAccrual, Timeout: 1000, PhiThreshold: 8, MinStdDev: period / 10}, []int32{1}, 0)
		for k := 1; k <= 20; k++ {
			d.Heard(1, float64(k)*period)
		}
		return d
	}
	fast, slow := mk(1), mk(10)
	// 15 units of silence: ~15 missed beats on the fast link, barely one
	// on the slow link.
	if fast.Phi(1, 20+15) <= 8 {
		t.Fatalf("fast link phi = %g, want > 8", fast.Phi(1, 35))
	}
	if slow.Phi(1, 200+15) >= 8 {
		t.Fatalf("slow link phi = %g, want < 8", slow.Phi(1, 215))
	}
}

func TestPhiBootstrapUsesTimeout(t *testing.T) {
	// With fewer than MinSamples observations the fixed timeout applies.
	d := New(Config{Policy: PhiAccrual, Timeout: 10, MinSamples: 5}, []int32{1}, 0)
	d.Heard(1, 1)
	d.Heard(1, 2)
	if got := d.Check(9); len(got) != 0 {
		t.Fatalf("suspected %v before bootstrap timeout", got)
	}
	if got := d.Check(13); len(got) != 1 {
		t.Fatalf("bootstrap timeout not applied: %v", got)
	}
}

func TestOutageIntervalNotLearned(t *testing.T) {
	// The silence spanning a suspicion must not enter the φ window —
	// otherwise one outage would teach the detector to tolerate
	// arbitrarily long silences.
	d := New(Config{Policy: PhiAccrual, Timeout: 5, PhiThreshold: 4, MinSamples: 3, MinStdDev: 0.2}, []int32{1}, 0)
	for now := 1.0; now <= 10; now++ {
		d.Heard(1, now)
	}
	d.Check(100) // outage: suspected long ago
	d.Heard(1, 100)
	mean, _ := d.state(1).meanStd()
	if mean > 2 {
		t.Fatalf("outage interval polluted the window: mean inter-arrival %g", mean)
	}
}

func TestWindowSlides(t *testing.T) {
	d := New(Config{Policy: PhiAccrual, Timeout: 100, WindowSize: 4}, []int32{1}, 0)
	for now := 1.0; now <= 100; now++ {
		d.Heard(1, now)
	}
	ns := d.state(1)
	if len(ns.win.samples) != 4 {
		t.Fatalf("window size %d, want 4", len(ns.win.samples))
	}
	mean, std := ns.meanStd()
	if math.Abs(mean-1) > 1e-9 || std > 1e-9 {
		t.Fatalf("window stats mean=%g std=%g, want 1, 0", mean, std)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{},                            // no timeout
		{Timeout: -1},                 // negative timeout
		{Timeout: 1, Policy: 7},       // unknown policy
		{Timeout: 1, WindowSize: -1},  // negative window
		{Timeout: 1, MinStdDev: -0.1}, // negative floor
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if err := (Config{Timeout: 1}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
