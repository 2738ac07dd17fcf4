// Package leakcheck is the goroutine-leak gate of this module's test
// binaries. A package installs it as its TestMain; once every test has
// run, the binary fails if a goroutine running this module's code is
// still alive, and prints that goroutine's stack. Tests that check a
// scenario of their own — a stream closed mid-drain must stop its
// producers — assert through Settle. It imports the standard library
// only, so any package's tests can use it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Grace bounds how long Main and Settle wait for goroutines to retire: a
// producer that has closed its channel, or a handler that has written its
// last frame, may still be unwinding when the test that started it
// returns. The wait ends as soon as none is left, so a clean package pays
// one poll: under -race on two shared cores, engine's and wire's settle
// on the first, in under a millisecond.
const Grace = time.Second

// module prefixes every function of this module in a stack dump.
const module = "vcqr/"

// Main runs the package's tests and then fails the binary if goroutines
// of this module outlive them by more than Grace, printing their stacks.
// Use it as the body of TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if left := Settle(Grace); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) running %s code outlived the tests:\n\n%s\n",
			len(left), module, strings.Join(left, "\n\n"))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Settle polls for at most grace until no goroutine but the caller's runs
// this module's code, and returns the stacks of those still running then
// (none when it settled). Goroutines of the test runner — the one in
// TestMain and those running tests — do not count.
func Settle(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		left := running()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// running returns the stacks of the goroutines other than the caller's
// with a frame of this module and none of package testing. A goroutine a
// test started counts: its frames are the test's, not the runner's.
func running() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The dump opens with the caller's goroutine; blank lines part them.
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, module) && !strings.Contains(g, "\ntesting.") {
			left = append(left, g)
		}
	}
	return left
}
