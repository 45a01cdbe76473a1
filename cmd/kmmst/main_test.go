package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput pins the command's output byte for byte.
func TestGoldenOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "1024"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/n1024.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output drifted:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestRejectsUnreadFlags pins that a flag the chosen run would not read
// is a usage error (exit 2) with a message, never silently dropped.
func TestRejectsUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rep", "-store", "g.kmgs"}, "-rep"},
		{[]string{"-rep", "-transport", "tcp", "-workers", "127.0.0.1:1"}, "-rep"},
		{[]string{"-rep", "-trace", "t.json"}, "-rep"},
		{[]string{"-transport", "tcp", "-workers", "127.0.0.1:1"}, "needs -store"},
		{[]string{"-retries", "2"}, "-retries requires -transport tcp"},
		{[]string{"-n", "4"}, "m=12 out of range"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q)", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), tc.want)
			}
		})
	}
}
