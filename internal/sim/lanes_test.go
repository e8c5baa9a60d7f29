package sim

import (
	"testing"

	"rtmap/internal/model"
)

// eightBit is the zoo configuration at 8-bit activations, whose wider
// accumulators need wider lanes.
var eightBit = model.Config{ActBits: 8, Sparsity: 0.8, Seed: 1}

// Every tile program of the small zoo packs 4 CAM rows per machine word
// at 4-bit activations, and the 8-bit MiniResNet18 at least 3. A codegen
// change that widens accumulators, or a range-analysis change that
// loses precision, fails here instead of silently losing the packed
// engine's speedup.
func TestZooPlansPackLanes(t *testing.T) {
	cases := []struct {
		name     string
		net      func() *model.Network
		minLanes int
		large    bool
	}{
		{"tinycnn", func() *model.Network { return model.TinyCNN(model.DefaultConfig()) }, 4, false},
		{"tinyresnet", func() *model.Network { return model.TinyResNet(model.DefaultConfig()) }, 4, false},
		{"vgg9", func() *model.Network { return model.VGG9(model.DefaultConfig()) }, 4, true},
		{"miniresnet18", func() *model.Network { return model.MiniResNet18(model.DefaultConfig(), 32, 32) }, 4, true},
		{"miniresnet18-8bit", func() *model.Network { return model.MiniResNet18(eightBit, 32, 32) }, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("compiles a paper-zoo network")
			}
			c := compileNet(t, tc.net(), true)
			byLanes := map[int]int{}
			for li, lp := range c.Layers {
				for si, sp := range lp.StripPlans {
					for ti, tp := range sp.Programs {
						plan, err := tp.ExecPlan()
						if err != nil {
							t.Fatal(err)
						}
						byLanes[plan.Lanes()]++
						if plan.Lanes() < tc.minLanes {
							t.Errorf("layer %d (%s) strip %d tile %d packs %d lanes, want at least %d",
								li, lp.Name, si, ti, plan.Lanes(), tc.minLanes)
						}
					}
				}
			}
			if len(byLanes) == 0 {
				t.Fatal("no tile programs retained")
			}
			t.Logf("tile programs by lane count: %v", byLanes)
		})
	}
}
