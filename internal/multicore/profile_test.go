package multicore_test

import (
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestProfileWallSamples: Profile.WallSampleEvery reaches every core's
// private ranks and the shared domain, so every rank that ticked
// carries wall-time samples.
func TestProfileWallSamples(t *testing.T) {
	prof := &observatory.Profile{WallSampleEvery: 4}
	if _, err := multicore.RunProbed(detConfig(), detMix(t), multicore.Probes{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	for _, r := range prof.Ranks {
		if r.Ticks == 0 {
			t.Errorf("rank %s never ticked", r.Name)
		} else if r.WallSamples == 0 {
			t.Errorf("rank %s ticked %d times with no wall samples", r.Name, r.Ticks)
		}
	}
}

// TestReferenceProfileVocabulary: the lockstep reference attributes
// every rank at every cycle as a plain due tick, the vocabulary the
// single-core reference engine reports.
func TestReferenceProfileVocabulary(t *testing.T) {
	cfg := detConfig()
	single := &observatory.Profile{}
	tr, err := workload.Get(detTraces[0], workload.Params{Instrs: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunProbed(cfg.Single, trace.NewSource(tr), sim.Probes{Profile: single, ReferenceEngine: true}); err != nil {
		t.Fatal(err)
	}
	multi := &observatory.Profile{}
	if _, err := multicore.RunProbed(cfg, detMix(t), multicore.Probes{Profile: multi, ReferenceEngine: true}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *observatory.Profile
	}{{"single-core", single}, {"multicore", multi}} {
		p := tc.p
		if p.Advances == 0 || p.VisitedCycles != p.Advances || p.SkippedCycles != 0 || p.ClampedAdvances != 0 {
			t.Errorf("%s: advances=%d visited=%d skipped=%d clamped=%d, want one unclamped visit per step",
				tc.name, p.Advances, p.VisitedCycles, p.SkippedCycles, p.ClampedAdvances)
		}
		for _, r := range p.Ranks {
			if r.Ticks == 0 || r.DueTicks != r.Ticks || r.WakeTicks != 0 || r.VersionTicks != 0 ||
				r.Integrated != 0 || r.Rearmed != 0 || r.KeptArm != 0 {
				t.Errorf("%s rank %s: %+v, want plain due ticks only", tc.name, r.Name, r)
			}
		}
	}
}
