package firal

// RoundObserver receives each RoundReport as soon as its round completes,
// while the session is still running — the streaming complement to the
// slice RunContext returns at the end. Observers run synchronously on the
// session goroutine; a slow observer slows the session. The report is
// shared with the returned slice, so observers must not mutate it.
type RoundObserver func(*RoundReport)

// runConfig is the resolved configuration of one RunContext session.
type runConfig struct {
	// rounds caps the round count; 0 means no cap (run until the pool is
	// exhausted or a stop criterion fires).
	rounds    int
	budget    int
	stops     []StopCriterion
	observers []RoundObserver
}

// RunOption customizes a RunContext session.
type RunOption func(*runConfig)

// WithRounds caps the session at n rounds. n <= 0 removes the cap: the
// session runs until the pool is exhausted or a stop criterion fires.
// Without this option the session defaults to the Config.Rounds schedule
// (when positive).
func WithRounds(n int) RunOption {
	return func(rc *runConfig) {
		if n < 0 {
			n = 0
		}
		rc.rounds = n
	}
}

// WithBudget sets the number of points labeled per round. Without this
// option the session defaults to the Config.Budget schedule.
func WithBudget(b int) RunOption {
	return func(rc *runConfig) { rc.budget = b }
}

// WithStopCriterion adds a stop criterion, evaluated after every round;
// the first criterion that fires ends the session cleanly. The option may
// be repeated — criteria combine as "any of".
func WithStopCriterion(c StopCriterion) RunOption {
	return func(rc *runConfig) {
		if c != nil {
			rc.stops = append(rc.stops, c)
		}
	}
}

// WithObserver adds a RoundObserver that streams every completed round's
// report. The option may be repeated; observers fire in registration
// order.
func WithObserver(o RoundObserver) RunOption {
	return func(rc *runConfig) {
		if o != nil {
			rc.observers = append(rc.observers, o)
		}
	}
}
