package main

import (
	"math"
	"strings"
	"testing"
)

func TestBuildPlanHamming(t *testing.T) {
	plan, err := buildPlan(Request{Problem: "hamming", Size: 20, PA: 1e4, PB: 1, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.OptimalQ < 2 || plan.OptimalQ > math.Exp2(20) {
		t.Errorf("q* = %v out of range", plan.OptimalQ)
	}
	if plan.Replication < 1 {
		t.Errorf("replication %v below trivial bound", plan.Replication)
	}
	if !strings.Contains(plan.Recommendation, "Splitting") {
		t.Errorf("recommendation %q should name Splitting", plan.Recommendation)
	}
}

func TestBuildPlanCommunicationPriceMovesQ(t *testing.T) {
	cheap, err := buildPlan(Request{Problem: "hamming", Size: 20, PA: 1e3, PB: 1, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	expensive, err := buildPlan(Request{Problem: "hamming", Size: 20, PA: 1e7, PB: 1, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	if expensive.OptimalQ <= cheap.OptimalQ {
		t.Errorf("pricier communication should push q* up: %v vs %v", expensive.OptimalQ, cheap.OptimalQ)
	}
}

func TestBuildPlanAllProblems(t *testing.T) {
	for p, size := range map[string]int{"hamming": 16, "triangle": 100, "twopaths": 100, "matmul": 100} {
		plan, err := buildPlan(Request{Problem: p, Size: size, PA: 1e4, PB: 1, Density: 1})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if plan.Recommendation == "" {
			t.Errorf("%s: empty recommendation", p)
		}
		if plan.Cost <= 0 {
			t.Errorf("%s: cost %v", p, plan.Cost)
		}
	}
}

func TestBuildPlanDensityScaling(t *testing.T) {
	plan, err := buildPlan(Request{Problem: "triangle", Size: 200, PA: 1e4, PB: 1, Density: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.AssignableQ-10*plan.OptimalQ) > 1e-6*plan.OptimalQ {
		t.Errorf("density 0.1 should scale q by 10: %v vs %v", plan.AssignableQ, plan.OptimalQ)
	}
}

func TestBuildPlanRejectsBadRequests(t *testing.T) {
	for _, req := range []Request{
		{Problem: "nonsense"},
		{Problem: "hamming", Size: 0},
		{Problem: "hamming", Size: 70},
		{Problem: "triangle", Size: 2},
		{Problem: "twopaths", Size: 1},
		{Problem: "matmul", Size: 0},
	} {
		if _, err := buildPlan(req); err == nil {
			t.Errorf("request %+v should be rejected", req)
		}
	}
}

func TestBuildPlanQuadraticTermLowersQ(t *testing.T) {
	lin, err := buildPlan(Request{Problem: "matmul", Size: 128, PA: 1e4, PB: 1, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := buildPlan(Request{Problem: "matmul", Size: 128, PA: 1e4, PB: 1, PC: 0.01, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	if quad.OptimalQ >= lin.OptimalQ {
		t.Errorf("wall-clock pricing should shrink q*: %v vs %v", quad.OptimalQ, lin.OptimalQ)
	}
}
