package main

import (
	"maps"
	"strings"
	"testing"
)

// TestParsePeers pins the -peers grammar: comma-separated id=url
// entries, unique ids, trailing slashes trimmed from URLs.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    map[string]string
		wantErr string
	}{
		{name: "empty spec", spec: "", wantErr: "requires -peers"},
		{name: "entry without =", spec: "a=http://h1:8080,b", wantErr: `bad -peers entry "b"`},
		{name: "empty id", spec: "=http://h1:8080", wantErr: "bad -peers entry"},
		{name: "empty url", spec: "a=", wantErr: "bad -peers entry"},
		{name: "duplicate id", spec: "a=http://h1:8080,a=http://h2:8080", wantErr: `duplicate -peers id "a"`},
		{
			name: "trailing slash trimmed",
			spec: "a=http://h1:8080/, b=http://h2:8080",
			want: map[string]string{"a": "http://h1:8080", "b": "http://h2:8080"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parsePeers(%q) error = %v, want one containing %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", tc.spec, err)
			}
			if !maps.Equal(got, tc.want) {
				t.Fatalf("parsePeers(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}
