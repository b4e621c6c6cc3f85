// Quickstart: build a small simulated distributed-memory machine, place
// an object on a remote processor, and access it first with RPC and then
// with computation migration, printing what each mechanism cost.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/machine"
	"compmig/internal/msg"
	"compmig/internal/sim"
)

// account is our object: a balance that can be read and added to.
type account struct{ balance uint64 }

// addArgs is the marshaled argument record for the deposit method — the
// stub a compiler would generate.
type addArgs struct{ amount uint64 }

func (a *addArgs) MarshalWords(w *msg.Writer)         { w.PutU64(a.amount) }
func (a *addArgs) UnmarshalWords(r *msg.Reader) error { a.amount = r.U64(); return r.Err() }

// balanceReply carries the balance back.
type balanceReply struct{ balance uint64 }

func (b *balanceReply) MarshalWords(w *msg.Writer)         { w.PutU64(b.balance) }
func (b *balanceReply) UnmarshalWords(r *msg.Reader) error { b.balance = r.U64(); return r.Err() }

// auditCont is the operation, written once for both mechanisms: a
// number of deposits into one account, returning the final balance. Its
// fields are the live variables at the migration point. Under RPC each
// deposit is a remote call; under computation migration the record moves
// to the account, makes every deposit locally, then returns the balance
// directly to the caller.
type auditCont struct {
	mDeposit core.MethodID // not marshaled: the factory sets it

	target  gid.GID
	deposit uint64
	rounds  uint32 // deposits still to make
	res     balanceReply
}

func (c *auditCont) MarshalWords(w *msg.Writer) {
	w.PutU64(uint64(c.target))
	w.PutU64(c.deposit)
	w.PutU32(c.rounds)
}

func (c *auditCont) UnmarshalWords(r *msg.Reader) error {
	c.target = gid.GID(r.U64())
	c.deposit = r.U64()
	c.rounds = r.U32()
	return r.Err()
}

func (c *auditCont) At() gid.GID         { return c.target }
func (c *auditCont) Result() core.Result { return &c.res }

// Visit makes one deposit at the account.
func (c *auditCont) Visit(t *core.Task, self any, _ core.Mechanism) bool {
	acct := self.(*account)
	t.Work(25)
	acct.balance += c.deposit
	c.res.balance = acct.balance
	c.rounds--
	return c.rounds == 0
}

// RPC makes one deposit by a remote call.
func (c *auditCont) RPC(t *core.Task) bool {
	if err := t.Call(c.target, c.mDeposit, &addArgs{amount: c.deposit}, &c.res); err != nil {
		panic(err)
	}
	c.rounds--
	return c.rounds == 0
}

// run makes the five deposits under mech (RPC or Migrate) on a fresh
// machine.
func run(mech core.Mechanism) (balance uint64, cycles sim.Time, messages, words uint64) {
	m := machine.New("quickstart", machine.Config{Seed: 1, Scheme: core.Scheme{Mechanism: mech}}, 4)
	rt := m.RT

	// The account lives on processor 3; our thread runs on processor 0.
	acct := rt.Objects.New(3, &account{balance: 100})

	deposit := rt.RegisterMethod("account.deposit", false,
		func(t *core.Task, self any, args *msg.Reader, reply *msg.Writer) {
			a := self.(*account)
			t.Work(25)
			a.balance += args.U64()
			reply.PutU64(a.balance)
		})
	audit := core.RegisterWalker(rt, "account.audit", func(c *auditCont) { c.mDeposit = deposit })

	const rounds = 5
	m.Eng.Spawn("client", 0, func(th *sim.Thread) {
		task := rt.NewTask(th, 0)
		start := th.Now()
		c := task.Record(audit).(*auditCont)
		*c = auditCont{mDeposit: deposit, target: acct, deposit: 10, rounds: rounds}
		task.Walk(mech, audit, c)
		balance = c.res.balance
		cycles = th.Now() - start
	})
	col := m.Run(&machine.Result{})
	return balance, cycles, col.TotalMessages(), col.WordsSent
}

func main() {
	fmt.Println("five deposits into an account on a remote processor:")
	fmt.Println()
	for _, mode := range []struct {
		name string
		mech core.Mechanism
	}{
		{"RPC (each access remote)", core.RPC},
		{"computation migration (frame moves to the data)", core.Migrate},
	} {
		bal, cyc, msgs, words := run(mode.mech)
		fmt.Printf("%-50s balance=%d  cycles=%d  messages=%d  words=%d\n",
			mode.name, bal, cyc, msgs, words)
	}
	fmt.Println()
	fmt.Println("same result either way — the annotation changes only performance (§3.1).")
}
