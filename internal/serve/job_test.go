package serve

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	qmd "ldcdft"
)

// wireConfigKeys are the keys a job may set under "config": the json
// names of core.Config, which is the wire form.
var wireConfigKeys = []string{
	"grid_n", "domains_per_axis", "buf_n", "ecut",
	"kt", "mix_alpha", "anderson", "max_scf", "energy_tol", "density_tol", "eigen_iters", "seed", "workers",
}

// Every field of the engine configuration decides its wire form by an
// explicit json tag. encoding/json takes an untagged field under its Go
// name, so without this a setting added later would reach the wire
// unreviewed.
func TestConfigFieldsCarryJSONTags(t *testing.T) {
	typ := reflect.TypeOf(qmd.LDCConfig{})
	var keys []string
	for i := range typ.NumField() {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("json")
		if !ok {
			t.Errorf("core.Config.%s has no json tag", f.Name)
			continue
		}
		if name, _, _ := strings.Cut(tag, ","); name != "-" {
			keys = append(keys, name)
		}
	}
	if !slices.Equal(keys, wireConfigKeys) {
		t.Errorf("config wire keys %v, want %v", keys, wireConfigKeys)
	}
}

// Exactly the wire keys decode under "config"; the mode and the spill
// directory, in either spelling, are refused as unknown fields.
func TestConfigWireKeys(t *testing.T) {
	spec := func(key, value string) string {
		return `{"cell_l":8,"atoms":[{"species":"H","position":[4,4,4]}],"steps":1,"config":{"` + key + `":` + value + `}}`
	}
	for _, key := range wireConfigKeys {
		value := "1"
		if key == "anderson" {
			value = "true"
		}
		if _, err := DecodeSpec(strings.NewReader(spec(key, value))); err != nil {
			t.Errorf("config key %q refused: %v", key, err)
		}
	}
	for _, key := range []string{"mode", "spill_dir", "Mode", "SpillDir"} {
		_, err := DecodeSpec(strings.NewReader(spec(key, `"1"`)))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("config key %q: err %v, want an unknown field", key, err)
		}
	}
}

// A full LDC spec and a reactive spec decode and re-encode to these
// bytes, which are what earlier builds wrote as spec.json: a persisted
// spec the daemon cannot decode is skipped on recovery.
func TestSpecWireGolden(t *testing.T) {
	ldc := JobSpec{Name: "h2", Priority: 2, CellL: 8,
		Atoms: []AtomSpec{
			{Species: "H", Position: [3]float64{3.3, 4, 4}, Velocity: [3]float64{0.001, 0, -0.002}},
			{Species: "H", Position: [3]float64{4.7, 4, 4}},
		},
		Config: qmd.LDCConfig{GridN: 12, DomainsPerAxis: 2, BufN: 1, Ecut: 4, KT: 0.05, MixAlpha: 0.3, Anderson: true,
			MaxSCF: 80, EnergyTol: 1e-7, DensityTol: 1e-6, EigenIters: 4, Seed: 7, Workers: 2},
		Steps: 3, DtFs: 0.5, CheckpointEvery: 2}
	reactive := JobSpec{Name: "lial", Engine: EngineReactive, CellL: 20,
		Atoms:    []AtomSpec{{Species: "Li", Position: [3]float64{1, 2, 3}}, {Species: "O", Position: [3]float64{5, 5, 5}}},
		Reactive: &ReactiveSpec{TempK: 1500, SampleEvery: 10, ThermostatTauFs: 24, Seed: 3}, Steps: 100, DtFs: 0.25}
	for _, c := range []struct {
		spec   JobSpec
		golden string
	}{
		{ldc, `{"name":"h2","priority":2,"cell_l":8,"atoms":[{"species":"H","position":[3.3,4,4],"velocity":[0.001,0,-0.002]},{"species":"H","position":[4.7,4,4],"velocity":[0,0,0]}],"config":{"grid_n":12,"domains_per_axis":2,"buf_n":1,"ecut":4,"kt":0.05,"mix_alpha":0.3,"anderson":true,"max_scf":80,"energy_tol":1e-7,"density_tol":0.000001,"eigen_iters":4,"seed":7,"workers":2},"steps":3,"dt_fs":0.5,"checkpoint_every":2}`},
		{reactive, `{"name":"lial","engine":"reactive","cell_l":20,"atoms":[{"species":"Li","position":[1,2,3],"velocity":[0,0,0]},{"species":"O","position":[5,5,5],"velocity":[0,0,0]}],"reactive":{"temp_k":1500,"sample_every":10,"thermostat_tau_fs":24,"seed":3},"steps":100,"dt_fs":0.25}`},
	} {
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.golden {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.spec.Name, raw, c.golden)
		}
		back, err := DecodeSpec(strings.NewReader(c.golden))
		if err != nil {
			t.Fatalf("%s: golden does not decode: %v", c.spec.Name, err)
		}
		if !reflect.DeepEqual(back, c.spec) {
			t.Errorf("%s: golden decodes to %+v, want %+v", c.spec.Name, back, c.spec)
		}
		if again, _ := json.Marshal(back); string(again) != c.golden {
			t.Errorf("%s: golden re-encodes to\n%s", c.spec.Name, again)
		}
	}
}
