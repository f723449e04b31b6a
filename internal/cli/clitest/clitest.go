// Package clitest runs a command's main function in a child copy of
// its test binary, so that a test can check the exit status and
// standard error of a real invocation, os.Exit calls included.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries the child's command-line arguments, one per line.
const argsEnv = "EMERALDS_CLITEST_ARGS"

// Main is the body of a command's TestMain: in a child started by
// Refused it runs main on the arguments passed down; otherwise it runs
// the tests.
func Main(m *testing.M, main func()) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Refused runs the command with args in a child process and fails the
// test unless it exits 2 with a usage error naming want. A Go panic
// also exits 2, so a panic in standard error fails the test too.
func Refused(t *testing.T, want string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	code, msg := cmd.ProcessState.ExitCode(), stderr.String()
	if code != 2 || strings.Contains(msg, "panic:") || !strings.Contains(msg, want) {
		t.Errorf("%v: exit %d, stderr %q; want exit 2 with a usage error naming %q", args, code, msg, want)
	}
}
