// Package health is a declarative SLO engine for the fleet control
// plane. Operators declare rules — named scalar signals compared
// against warn/critical thresholds with hysteresis — and the engine
// evaluates them on each rollup tick, maintains per-rule state with
// flap suppression, keeps an ordered in-memory alert log, and serves
// the /healthz and /debug/health endpoints on the debug server.
//
// The engine is deliberately ignorant of where signals come from: it
// consumes a map of name → value per evaluation. ffserve feeds it
// from the fleet rollup (extract latency tails, heartbeat gaps,
// upload backlog, eviction rate, drift scores), but anything that can
// produce a float64 per tick can be an SLO.
package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Status is a rule's (or the engine's overall) health level, ordered
// by severity.
type Status int

const (
	Healthy Status = iota
	degraded
	critical
)

func (s Status) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case degraded:
		return "degraded"
	case critical:
		return "critical"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// MarshalJSON renders the status as its lowercase name, the form
// /debug/health consumers match on.
func (s Status) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Rule is one declarative SLO: a signal breaching Warn for For
// consecutive evaluations marks the rule degraded (critical when it
// also reaches Crit); the rule clears after ClearFor consecutive
// healthy evaluations. Larger signal values are always worse — invert
// the signal at the source for floors.
type Rule struct {
	// Name identifies the rule in alerts and endpoints.
	Name string
	// Signal is the key sampled from each evaluation's signal map. An
	// absent signal leaves the rule's state untouched (no evidence
	// either way), so a source that reports late cannot flap a rule.
	Signal string
	// Warn is the degraded threshold (inclusive). Crit, when positive,
	// escalates to critical (inclusive).
	Warn float64
	Crit float64
	// For is the hysteresis on firing: consecutive breaching
	// evaluations required before the rule leaves healthy (minimum 1).
	// ClearFor is the flap suppression on recovery: consecutive
	// healthy evaluations required before a firing rule clears
	// (minimum 1).
	For      int
	ClearFor int
}

// Alert is one rule state transition, recorded in the engine's
// ordered log. Status is the state entered: degraded/critical on fire
// or severity change, Healthy on clear.
type Alert struct {
	// Seq orders alerts totally (1-based); Time stamps the evaluation
	// that caused the transition.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Rule string    `json:"rule"`
	// Status is the state entered; Value is the signal value at the
	// transition; Threshold is the boundary it crossed (Warn on clear
	// and degrade, Crit on escalation).
	Status    Status  `json:"status"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// RuleStatus is one rule's current state for reporting.
type RuleStatus struct {
	Rule Rule `json:"rule"`
	// Value is the most recent signal sample; Seen reports whether the
	// signal has ever been sampled.
	Value float64 `json:"value"`
	Seen  bool    `json:"seen"`
	// Status is the rule's current state; Breaches is the current
	// consecutive-breach streak (resets on any healthy evaluation).
	Status   Status `json:"status"`
	Breaches int    `json:"breaches"`
}

type ruleState struct {
	value  float64
	seen   bool
	breach int // consecutive breaching evaluations
	okRun  int // consecutive healthy evaluations while firing
	status Status
}

// defaultMaxAlerts bounds the in-memory alert log; the oldest entries
// fall off first (their Seq numbers keep counting).
const defaultMaxAlerts = 256

// Engine evaluates a rule set against periodic signal samples. All
// methods are safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	rules  []Rule
	state  map[string]*ruleState
	alerts []Alert
	seq    uint64

	maxAlerts int
	now       func() time.Time
}

// New builds an engine over rules (For/ClearFor floors applied).
// Duplicate rule names keep the last definition.
func New(rules []Rule) *Engine {
	e := &Engine{
		state:     make(map[string]*ruleState),
		maxAlerts: defaultMaxAlerts,
		now:       time.Now,
	}
	for _, r := range rules {
		if r.For < 1 {
			r.For = 1
		}
		if r.ClearFor < 1 {
			r.ClearFor = 1
		}
		if _, dup := e.state[r.Name]; dup {
			for i := range e.rules {
				if e.rules[i].Name == r.Name {
					e.rules[i] = r
				}
			}
		} else {
			e.rules = append(e.rules, r)
			e.state[r.Name] = &ruleState{}
		}
	}
	return e
}

// Eval runs one evaluation tick over the signal map and returns the
// overall status (the worst rule state) plus any transitions this
// tick caused, in rule order.
func (e *Engine) Eval(signals map[string]float64) (Status, []Alert) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	var fired []Alert
	for _, r := range e.rules {
		st := e.state[r.Name]
		v, ok := signals[r.Signal]
		if !ok {
			continue
		}
		st.seen = true
		st.value = v
		sev := Healthy
		if v >= r.Warn {
			sev = degraded
			if r.Crit > 0 && v >= r.Crit {
				sev = critical
			}
		}
		if sev == Healthy {
			st.breach = 0
			if st.status == Healthy {
				continue
			}
			st.okRun++
			if st.okRun < r.ClearFor {
				continue
			}
			st.status = Healthy
			st.okRun = 0
			fired = append(fired, e.recordLocked(now, r.Name, Healthy, v, r.Warn))
			continue
		}
		st.okRun = 0
		st.breach++
		if st.breach < r.For || sev == st.status {
			continue
		}
		st.status = sev
		threshold := r.Warn
		if sev == critical {
			threshold = r.Crit
		}
		fired = append(fired, e.recordLocked(now, r.Name, sev, v, threshold))
	}
	return e.overallLocked(), fired
}

func (e *Engine) recordLocked(now time.Time, rule string, status Status, value, threshold float64) Alert {
	e.seq++
	a := Alert{Seq: e.seq, Time: now, Rule: rule, Status: status, Value: value, Threshold: threshold}
	e.alerts = append(e.alerts, a)
	if len(e.alerts) > e.maxAlerts {
		e.alerts = e.alerts[len(e.alerts)-e.maxAlerts:]
	}
	return a
}

func (e *Engine) overallLocked() Status {
	overall := Healthy
	for _, st := range e.state {
		if st.status > overall {
			overall = st.status
		}
	}
	return overall
}

// Status returns the overall status and every rule's current state,
// sorted by rule name.
func (e *Engine) Status() (Status, []RuleStatus) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, 0, len(e.rules))
	for _, r := range e.rules {
		st := e.state[r.Name]
		out = append(out, RuleStatus{
			Rule: r, Value: st.value, Seen: st.seen,
			Status: st.status, Breaches: st.breach,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return e.overallLocked(), out
}

// alertLog returns the alert log, oldest first. The log is bounded at
// defaultMaxAlerts entries; Seq numbers are total even after the
// oldest fall off.
func (e *Engine) alertLog() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.alerts...)
}

// healthz is the /healthz contract: HTTP 200 with a body starting
// "ok" when every rule is healthy, HTTP 503 with a body starting
// "degraded" or "critical" otherwise, followed by one line per firing
// rule ("rule <name>: <value> >= <threshold> (<status>)").
func (e *Engine) healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		overall, rules := e.Status()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if overall == Healthy {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, overall.String())
		for _, rs := range rules {
			if rs.Status == Healthy {
				continue
			}
			threshold := rs.Rule.Warn
			if rs.Status == critical && rs.Rule.Crit > 0 {
				threshold = rs.Rule.Crit
			}
			fmt.Fprintf(w, "rule %s: %g >= %g (%s)\n", rs.Rule.Name, rs.Value, threshold, rs.Status)
		}
	})
}

// debugHandler is the /debug/health contract: a JSON document with
// the overall status, every rule's current state, and the alert log.
func (e *Engine) debugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		overall, rules := e.Status()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Status Status       `json:"status"`
			Rules  []RuleStatus `json:"rules"`
			Alerts []Alert      `json:"alerts"`
		}{overall, rules, e.alertLog()})
	})
}

// Register mounts the engine's endpoints on a debug mux: /healthz and
// /debug/health.
func (e *Engine) Register(mux *http.ServeMux) {
	mux.Handle("/healthz", e.healthz())
	mux.Handle("/debug/health", e.debugHandler())
}

// Parse applies a comma-separated override spec to a base rule set
// and returns the result. Each clause is "name=warn", "name=warn:crit",
// or "name=off" (drop the rule); names must exist in base — the spec
// tunes declared SLOs, it does not invent signals.
func Parse(spec string, base []Rule) ([]Rule, error) {
	rules := append([]Rule(nil), base...)
	if strings.TrimSpace(spec) == "" {
		return rules, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("health: bad SLO clause %q (want name=warn[:crit] or name=off)", clause)
		}
		idx := -1
		for i, r := range rules {
			if r.Name == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			known := make([]string, 0, len(rules))
			for _, r := range rules {
				known = append(known, r.Name)
			}
			return nil, fmt.Errorf("health: unknown SLO rule %q (have %s)", name, strings.Join(known, ", "))
		}
		if val == "off" {
			rules = append(rules[:idx], rules[idx+1:]...)
			continue
		}
		warnStr, critStr, hasCrit := strings.Cut(val, ":")
		warn, err := strconv.ParseFloat(warnStr, 64)
		if err != nil {
			return nil, fmt.Errorf("health: bad warn threshold in %q: %v", clause, err)
		}
		rules[idx].Warn = warn
		if hasCrit {
			crit, err := strconv.ParseFloat(critStr, 64)
			if err != nil {
				return nil, fmt.Errorf("health: bad crit threshold in %q: %v", clause, err)
			}
			rules[idx].Crit = crit
		}
	}
	return rules, nil
}
