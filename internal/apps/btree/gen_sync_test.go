package btree

import (
	"os"
	"testing"

	"compmig/internal/contgen"
)

// TestGeneratedStubsInSync regenerates the continuation wire stubs from
// the annotated source and checks the committed ops_cm_gen.go matches —
// so hand edits to either side cannot drift apart silently.
func TestGeneratedStubsInSync(t *testing.T) {
	src, err := os.ReadFile("ops_cm.go")
	if err != nil {
		t.Fatal(err)
	}
	want, err := contgen.Generate("ops_cm.go", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("ops_cm_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("ops_cm_gen.go is stale; rerun: go run ./cmd/contgen -in internal/apps/btree/ops_cm.go")
	}
}

// TestGeneratedRPCStubsInSync does the same for the RPC argument/reply
// records in ops_rpc.go.
func TestGeneratedRPCStubsInSync(t *testing.T) {
	src, err := os.ReadFile("ops_rpc.go")
	if err != nil {
		t.Fatal(err)
	}
	want, err := contgen.Generate("ops_rpc.go", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("ops_rpc_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("ops_rpc_gen.go is stale; rerun: go run ./cmd/contgen -in internal/apps/btree/ops_rpc.go")
	}
}
