package machine

// Activity classifies what a slice of simulated active time was spent on.
// Every AccountActive charge happens under exactly one activity class: the
// runtime sets the core's current class around each operation, and the
// charge lands in the machine's per-class books in the same call that adds
// it to the core's per-frequency book. The overhead ledger
// (internal/telemetry/profile) is a view of those books.
//
// The classes mirror the paper's overhead taxonomy: guest execution (main
// and checker replicas), slicing barriers, checkpoint forks and COW page
// copies, dirty-page enumeration, event recording and replay steering,
// end-of-segment hashing for compare and vote, and recovery work. Remote
// farm stages (dispatch, upload, remote verify) spend host wall time, not
// simulated time; the telemetry recorder's stage spans carry them.
type Activity uint8

// Activity classes. ActUnattributed is the zero value: a charge observed
// under it means some code path accounts simulated time without declaring
// what the time was for, which the reconciliation test treats as drift.
const (
	ActUnattributed Activity = iota
	ActGuestMain             // main replica retiring guest instructions (user + syscall kernel time)
	ActGuestChecker          // checker replica re-executing guest instructions
	ActCOW                   // copy-on-write page duplication triggered by guest stores
	ActFork                  // checkpoint fork: page-table copy and checker task setup
	ActBarrier               // slicing boundary stops and containment barriers on main
	ActDirtyPages            // dirty-page enumeration and soft-dirty bit clearing
	ActRecord                // main-side event recording: tracer stops, byte capture
	ActReplay                // checker-side replay steering: counter setup, breakpoint stops
	ActCompare               // end-of-segment state hashing for pairwise comparison
	ActVote                  // end-of-segment state hashing for NMR majority voting
	ActRecovery              // rollback, arbitration referee work, forward repair
	NumActivities
)

// String names the class the way the ledger table prints it.
func (a Activity) String() string {
	switch a {
	case ActUnattributed:
		return "unattributed"
	case ActGuestMain:
		return "guest-main"
	case ActGuestChecker:
		return "guest-checker"
	case ActCOW:
		return "cow-copy"
	case ActFork:
		return "fork"
	case ActBarrier:
		return "barrier"
	case ActDirtyPages:
		return "dirty-pages"
	case ActRecord:
		return "record"
	case ActReplay:
		return "replay-steer"
	case ActCompare:
		return "compare-hash"
	case ActVote:
		return "vote-hash"
	case ActRecovery:
		return "recovery"
	}
	return "activity(?)"
}

// ActivityTotals is one activity class's share of a machine's active books:
// simulated nanoseconds, dynamic joules, and how many charges made them up.
type ActivityTotals struct {
	Ns      float64
	J       float64
	Charges uint64
}

// Charged returns the totals of every charge made under a, on any core,
// added in charge order since the machine was built.
func (m *Machine) Charged(a Activity) ActivityTotals { return m.acts[a] }

// SetActivity declares the class for subsequent AccountActive charges on
// this core and returns the previous class so narrow scopes can restore it.
// The register is pure observation: it never feeds the cost model.
func (c *Core) SetActivity(a Activity) Activity {
	prev := c.act
	c.act = a
	return prev
}

// Activity returns the core's current activity class.
func (c *Core) Activity() Activity { return c.act }
