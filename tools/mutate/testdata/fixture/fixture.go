// Package fixture holds one mutation site of each outcome the runner
// reports; mutate_test.go asserts the report.
package fixture

// Label's + becomes - on strings, which does not compile: stillborn.
func Label(a, b string) string { return a + b }

// Max with > made >= returns the same value on a tie: survived.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var total int

// Add with its += dropped leaves total alone: killed by TestAdd.
func Add(n int) int {
	total += n
	return total
}

var seen int

// Note with + made - drives seen negative, which only TestSeen checks,
// and only after TestNote has run: a cascade, not a kill.
func Note(n int) { seen = seen + n }

// Seen reports the running sum of Note's arguments.
func Seen() int { return seen }
