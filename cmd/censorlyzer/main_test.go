package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"syriafilter/internal/render"
)

// -exp resolves to ids in presentation order plus the modules they read;
// an unknown id fails the whole selection (cmd/censord's behaviour)
// instead of being dropped beside the valid ones.
func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		exps    string
		ids     []string
		metrics []string
		unknown string
	}{
		{exps: "all", ids: render.Order()},
		{exps: "table4, all", ids: render.Order()},
		{exps: "fig5, table4,table1", ids: []string{"table1", "table4", "fig5"},
			metrics: []string{"datasets", "domains", "timeseries"}},
		{exps: "table4,nope", unknown: "nope"},
		{exps: "nope,all", unknown: "nope"},
		{exps: "nope,nada", unknown: "nope"},
		{exps: "", unknown: ""},
	}
	for _, tc := range cases {
		ids, metrics, err := selectExperiments(tc.exps)
		if tc.ids == nil {
			if !errors.Is(err, render.ErrUnknownID) || !strings.Contains(err.Error(), `"`+tc.unknown+`"`) {
				t.Errorf("-exp %q: err = %v, want ErrUnknownID naming %q", tc.exps, err, tc.unknown)
			}
			if ids != nil || metrics != nil {
				t.Errorf("-exp %q: a failed selection returned ids %v, metrics %v", tc.exps, ids, metrics)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.exps, err)
			continue
		}
		if !reflect.DeepEqual(ids, tc.ids) || !reflect.DeepEqual(metrics, tc.metrics) {
			t.Errorf("-exp %q: ids %v metrics %v, want %v %v", tc.exps, ids, metrics, tc.ids, tc.metrics)
		}
	}
}
