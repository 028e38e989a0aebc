package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testEngine builds an engine with a deterministic clock.
func testEngine(rules []Rule) *Engine {
	e := New(rules)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	e.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}
	return e
}

// TestEngineHysteresis pins the For/ClearFor state machine: a rule
// with For=2 must see two consecutive breaches before firing, and
// with ClearFor=2 two consecutive healthy evaluations before
// clearing; a single healthy evaluation resets the breach streak.
func TestEngineHysteresis(t *testing.T) {
	e := testEngine([]Rule{{Name: "lat", Signal: "p99", Warn: 100, For: 2, ClearFor: 2}})
	steps := []struct {
		value   float64
		overall Status
		alerts  int
	}{
		{150, Healthy, 0},  // first breach: armed, not firing
		{50, Healthy, 0},   // recovery resets the streak
		{150, Healthy, 0},  // breach #1 again
		{150, degraded, 1}, // breach #2: fires
		{150, degraded, 0}, // still firing: no repeat alert
		{50, degraded, 0},  // first healthy eval: still suppressed
		{50, Healthy, 1},   // second: clears
	}
	for i, step := range steps {
		overall, alerts := e.Eval(map[string]float64{"p99": step.value})
		if overall != step.overall || len(alerts) != step.alerts {
			t.Fatalf("step %d (value %g): overall %v with %d alert(s), want %v with %d",
				i, step.value, overall, len(alerts), step.overall, step.alerts)
		}
	}
}

// TestEngineEscalation verifies Crit escalates an already-degraded
// rule with its own alert, and that recovery passes back through a
// single Healthy transition.
func TestEngineEscalation(t *testing.T) {
	e := testEngine([]Rule{{Name: "drift", Signal: "psi", Warn: 0.25, Crit: 0.5}})
	if overall, alerts := e.Eval(map[string]float64{"psi": 0.3}); overall != degraded || len(alerts) != 1 {
		t.Fatalf("warn breach: %v, %v", overall, alerts)
	}
	overall, alerts := e.Eval(map[string]float64{"psi": 0.7})
	if overall != critical || len(alerts) != 1 || alerts[0].Status != critical || alerts[0].Threshold != 0.5 {
		t.Fatalf("crit breach: %v, %+v", overall, alerts)
	}
	if overall, _ := e.Eval(map[string]float64{"psi": 0.1}); overall != Healthy {
		t.Fatalf("recovery: %v", overall)
	}
	log := e.alertLog()
	if len(log) != 3 {
		t.Fatalf("alert log has %d entries, want 3", len(log))
	}
	for i, a := range log {
		if a.Seq != uint64(i+1) {
			t.Fatalf("alert %d has seq %d", i, a.Seq)
		}
	}
}

// TestEngineMissingSignal verifies an absent signal is no evidence:
// neither the breach streak nor the clear streak advances.
func TestEngineMissingSignal(t *testing.T) {
	e := testEngine([]Rule{{Name: "lat", Signal: "p99", Warn: 100}})
	e.Eval(map[string]float64{"p99": 200})
	for i := 0; i < 3; i++ {
		if overall, alerts := e.Eval(map[string]float64{}); overall != degraded || len(alerts) != 0 {
			t.Fatalf("missing signal tick %d: %v, %v", i, overall, alerts)
		}
	}
	_, rules := e.Status()
	if !rules[0].Seen || rules[0].Status != degraded {
		t.Fatalf("rule state after missing signals: %+v", rules[0])
	}
}

// TestEngineAlertLogBound verifies the log drops oldest entries while
// Seq keeps counting.
func TestEngineAlertLogBound(t *testing.T) {
	e := testEngine([]Rule{{Name: "flappy", Signal: "v", Warn: 1}})
	e.maxAlerts = 4
	for i := 0; i < 10; i++ {
		e.Eval(map[string]float64{"v": 2})
		e.Eval(map[string]float64{"v": 0})
	}
	log := e.alertLog()
	if len(log) != 4 {
		t.Fatalf("log has %d entries, want 4", len(log))
	}
	if log[len(log)-1].Seq != 20 {
		t.Fatalf("last seq %d, want 20", log[len(log)-1].Seq)
	}
}

// TestHealthzContract pins the endpoint contract the CI smoke curls:
// 200/"ok" when healthy, 503 with the overall status on the first
// line and one "rule ..." line per firing rule otherwise.
func TestHealthzContract(t *testing.T) {
	e := testEngine([]Rule{
		{Name: "lat", Signal: "p99", Warn: 100},
		{Name: "drift", Signal: "psi", Warn: 0.25, Crit: 0.5},
	})
	mux := http.NewServeMux()
	e.Register(mux)

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	if w := get("/healthz"); w.Code != 200 || !strings.HasPrefix(w.Body.String(), "ok") {
		t.Fatalf("healthy /healthz: %d %q", w.Code, w.Body.String())
	}

	e.Eval(map[string]float64{"p99": 50, "psi": 0.9})
	w := get("/healthz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("firing /healthz status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if lines[0] != "critical" {
		t.Fatalf("overall line %q", lines[0])
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "rule drift:") {
		t.Fatalf("firing rules body %q", w.Body.String())
	}

	var doc struct {
		Status string            `json:"status"`
		Rules  []json.RawMessage `json:"rules"`
		Alerts []json.RawMessage `json:"alerts"`
	}
	dw := get("/debug/health")
	if err := json.Unmarshal(dw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/health decode: %v (body %q)", err, dw.Body.String())
	}
	if doc.Status != "critical" || len(doc.Rules) != 2 || len(doc.Alerts) != 1 {
		t.Fatalf("/debug/health doc: %+v", doc)
	}
}

// TestParse covers the -slo override grammar.
func TestParse(t *testing.T) {
	base := []Rule{
		{Name: "lat", Signal: "p99", Warn: 100, Crit: 400},
		{Name: "drift", Signal: "psi", Warn: 0.25},
	}
	rules, err := Parse(" lat=50:200, drift=off ", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Warn != 50 || rules[0].Crit != 200 {
		t.Fatalf("parsed rules: %+v", rules)
	}
	if rules, err := Parse("", base); err != nil || len(rules) != 2 {
		t.Fatalf("empty spec: %v, %+v", err, rules)
	}
	for _, bad := range []string{"nosuch=1", "lat", "lat=abc", "lat=1:x"} {
		if _, err := Parse(bad, base); err == nil {
			t.Fatalf("spec %q did not error", bad)
		}
	}
	// Parse must not mutate the base set.
	if base[0].Warn != 100 || len(base) != 2 {
		t.Fatalf("base mutated: %+v", base)
	}
}
