package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dcasdeque/internal/verify/model"
)

// stubExplore replaces the model checker for the duration of a test so the
// exit-code plumbing can be exercised without enumerating state spaces.
func stubExplore(t *testing.T, fn func(model.Sys, model.Options) (*model.Report, *model.Violation)) {
	t.Helper()
	old := explore
	explore = fn
	t.Cleanup(func() { explore = old })
}

func okExplore(model.Sys, model.Options) (*model.Report, *model.Violation) {
	return &model.Report{States: 1, Events: map[string]int{}}, nil
}

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		want    config
	}{
		{name: "defaults", args: nil, want: config{algo: "all", threads: 2, solo: true}},
		{name: "explicit", args: []string{"-algo", "array", "-threads", "3", "-solo=false"},
			want: config{algo: "array", threads: 3, solo: false}},
		{name: "badThreadsLow", args: []string{"-threads", "1"}, wantErr: true},
		{name: "badThreadsHigh", args: []string{"-threads", "4"}, wantErr: true},
		{name: "badAlgo", args: []string{"-algo", "stack"}, wantErr: true},
		{name: "endLock", args: []string{"-algo", "array", "-dcas", "endlock"},
			want: config{algo: "array", threads: 2, solo: true, endLock: true}},
		{name: "endLockNeedsArray", args: []string{"-dcas", "endlock"}, wantErr: true},
		{name: "badDCAS", args: []string{"-algo", "array", "-dcas", "twolock"}, wantErr: true},
		{name: "positional", args: []string{"extra"}, wantErr: true},
		{name: "unknownFlag", args: []string{"-frobnicate"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			got, err := parseFlags(tc.args, &stderr)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseFlags(%q) = %+v, want error", tc.args, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			if got != tc.want {
				t.Fatalf("parseFlags(%q) = %+v, want %+v", tc.args, got, tc.want)
			}
		})
	}
}

func TestRunUsageErrorsExitTwo(t *testing.T) {
	stubExplore(t, okExplore)
	for _, args := range [][]string{
		{"-threads", "9"},
		{"-algo", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%q): no usage diagnostic on stderr", args)
		}
	}
}

func TestRunCleanExitZero(t *testing.T) {
	stubExplore(t, okExplore)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-algo", "both"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	for _, want := range []string{"Theorem 3.1", "Theorem 4.1", "Figure 6", "Figure 16"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q", want)
		}
	}
}

func TestRunObligationFailureExitOne(t *testing.T) {
	stubExplore(t, func(model.Sys, model.Options) (*model.Report, *model.Violation) {
		return &model.Report{Events: map[string]int{}},
			&model.Violation{Msg: "seeded: popped value never pushed", Trace: []string{"t0: PopLeft"}}
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-algo", "list"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "seeded: popped value never pushed") {
		t.Errorf("stderr missing the violation message:\n%s", stderr.String())
	}
}

// TestRunAlgoSelection checks the -algo flag actually gates which checkers
// run, by counting which system types the stub receives.
func TestRunAlgoSelection(t *testing.T) {
	var sawList, sawArray int
	stubExplore(t, func(s model.Sys, o model.Options) (*model.Report, *model.Violation) {
		switch {
		case strings.Contains(strings.ToLower(fmt.Sprintf("%T", s)), "list"):
			sawList++
		default:
			sawArray++
		}
		return &model.Report{Events: map[string]int{}}, nil
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-algo", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0", code)
	}
	if sawList == 0 || sawArray != 0 {
		t.Errorf("-algo list explored list=%d array=%d systems, want list>0 array=0", sawList, sawArray)
	}
}
