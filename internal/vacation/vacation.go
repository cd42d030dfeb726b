// Package vacation is a from-scratch Go port of the STAMP Vacation
// benchmark (Minh et al., IISWC 2008): an in-memory travel reservation
// system whose car, flight, room and customer tables are transactional
// red-black trees. The paper evaluates NOrec vs tagged NOrec on this
// workload (Figure 8, parameters -n4 -q60 -u90 -r16384 -t4096).
//
// Clients run three transaction types: MakeReservation (query n random
// items of each resource kind and reserve the best), DeleteCustomer (sum a
// customer's bill and remove them), and UpdateTables (add or remove
// resource capacity). All table and reservation-list accesses happen inside
// one STM transaction per client action, reproducing STAMP's transactional
// footprint.
//
// NewManager builds STAMP's tables, one red-black tree each, and is what
// the simulated Figure 8 runs. NewHashedManager spreads the customer table
// over 1<<customerBits hashed trees and each resource table over
// 1<<resourceBits (txmap.NewHashed): every access is a point lookup by id,
// so the tables need no order across ids, and a tagged NOrec read set then
// holds a root word and a node or two per table rather than a descent of
// the whole table. Only CheckTables walks whole tables, tree by tree.
package vacation

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// Resource kinds.
const (
	KindCar = iota
	KindFlight
	KindRoom
	numKinds
)

// NumKinds is the number of resource kinds (for request validation in
// serving layers).
const NumKinds = numKinds

// Reservation record layout (words): the value stored in a resource table.
const (
	rNumUsed  = 0
	rNumFree  = 1
	rNumTotal = 2
	rPrice    = 3
	rWords    = 4
)

// Customer record layout (words): the value stored in the customer table.
const (
	cListHead = 0 // head of the reservation list
	cWords    = 1
)

// Reservation-list node layout (words).
const (
	lKind  = 0
	lID    = 1
	lPrice = 2
	lNext  = 3
	lWords = 4
)

// Manager is the reservation system: three resource tables plus customers.
type Manager struct {
	mem       core.Memory
	tm        *stm.TM
	resources [numKinds]*txmap.Map
	customers *txmap.Map
}

// NewManager creates an empty reservation system with STAMP's tables: one
// red-black tree per table. It is NewHashedManager(mem, tm, 0, 0).
func NewManager(mem core.Memory, tm *stm.TM) *Manager { return NewHashedManager(mem, tm, 0, 0) }

// NewHashedManager creates an empty reservation system whose customer table
// holds 1<<customerBits hashed trees and each resource table 1<<resourceBits
// (txmap.NewHashed), and prepares the STM's per-thread cached transactions
// for every thread of mem: Populate, Client and RunTx go through RunCached,
// so steady-state transactions allocate nothing. (CheckTables reads every
// table in one transaction and keeps to Run, so that read set is not
// retained.)
func NewHashedManager(mem core.Memory, tm *stm.TM, customerBits, resourceBits uint) *Manager {
	tm.Prepare(mem.NumThreads())
	m := &Manager{mem: mem, tm: tm, customers: txmap.NewHashed(mem, customerBits)}
	for k := 0; k < numKinds; k++ {
		m.resources[k] = txmap.NewHashed(mem, resourceBits)
	}
	return m
}

// TM returns the manager's STM instance.
func (m *Manager) TM() *stm.TM { return m.tm }

// Customers returns the customer table, for callers that inspect its
// shape (TreeOf, TreeSize); reservations go through the Manager.
func (m *Manager) Customers() *txmap.Map { return m.customers }

// AddResource adds num units of kind/id at the given price, creating the
// record if needed (manager_add{Car,Flight,Room}).
func (m *Manager) AddResource(tx *stm.Tx, th core.Thread, kind int, id, num, price uint64) {
	tbl := m.resources[kind]
	if rec, ok := tbl.Get(tx, id); ok {
		r := core.Addr(rec)
		tx.Write(r.Plus(rNumFree), tx.Read(r.Plus(rNumFree))+num)
		tx.Write(r.Plus(rNumTotal), tx.Read(r.Plus(rNumTotal))+num)
		tx.Write(r.Plus(rPrice), price)
		return
	}
	r := th.Alloc(rWords)
	tx.Write(r.Plus(rNumUsed), 0)
	tx.Write(r.Plus(rNumFree), num)
	tx.Write(r.Plus(rNumTotal), num)
	tx.Write(r.Plus(rPrice), price)
	tbl.Put(tx, id, uint64(r), th)
}

// DeleteResource removes num unreserved units of kind/id, dropping the
// record entirely when no units remain. It reports whether the removal was
// possible (enough free capacity).
func (m *Manager) DeleteResource(tx *stm.Tx, kind int, id, num uint64) bool {
	tbl := m.resources[kind]
	rec, ok := tbl.Get(tx, id)
	if !ok {
		return false
	}
	r := core.Addr(rec)
	free := tx.Read(r.Plus(rNumFree))
	total := tx.Read(r.Plus(rNumTotal))
	if free < num {
		return false
	}
	tx.Write(r.Plus(rNumFree), free-num)
	tx.Write(r.Plus(rNumTotal), total-num)
	if total-num == 0 {
		tbl.Delete(tx, id)
	}
	return true
}

// QueryPrice returns the price of kind/id if it exists and has free
// capacity, else ok=false (manager_query{Car,Flight,Room}Price).
func (m *Manager) QueryPrice(tx *stm.Tx, kind int, id uint64) (price uint64, ok bool) {
	rec, ok := m.resources[kind].Get(tx, id)
	if !ok {
		return 0, false
	}
	r := core.Addr(rec)
	if tx.Read(r.Plus(rNumFree)) == 0 {
		return 0, false
	}
	return tx.Read(r.Plus(rPrice)), true
}

// AddCustomer inserts the customer if absent, reporting whether it was
// added.
func (m *Manager) AddCustomer(tx *stm.Tx, th core.Thread, id uint64) bool {
	if _, ok := m.customers.Get(tx, id); ok {
		return false
	}
	c := th.Alloc(cWords)
	tx.Write(c.Plus(cListHead), 0)
	m.customers.Put(tx, id, uint64(c), th)
	return true
}

// Reserve books one unit of kind/id for the customer, prepending it to the
// customer's reservation list (manager_reserve{Car,Flight,Room}).
func (m *Manager) Reserve(tx *stm.Tx, th core.Thread, customerID uint64, kind int, id uint64) bool {
	_, ok := m.ReservePriced(tx, th, customerID, kind, id)
	return ok
}

// ReservePriced is Reserve returning the booked unit's price, so a serving
// layer can answer a reservation request with what it will cost without a
// second transaction.
func (m *Manager) ReservePriced(tx *stm.Tx, th core.Thread, customerID uint64, kind int, id uint64) (price uint64, ok bool) {
	cust, ok := m.customers.Get(tx, customerID)
	if !ok {
		return 0, false
	}
	rec, ok := m.resources[kind].Get(tx, id)
	if !ok {
		return 0, false
	}
	r := core.Addr(rec)
	free := tx.Read(r.Plus(rNumFree))
	if free == 0 {
		return 0, false
	}
	tx.Write(r.Plus(rNumFree), free-1)
	tx.Write(r.Plus(rNumUsed), tx.Read(r.Plus(rNumUsed))+1)

	c := core.Addr(cust)
	n := th.Alloc(lWords)
	price = tx.Read(r.Plus(rPrice))
	tx.Write(n.Plus(lKind), uint64(kind))
	tx.Write(n.Plus(lID), id)
	tx.Write(n.Plus(lPrice), price)
	tx.Write(n.Plus(lNext), tx.Read(c.Plus(cListHead)))
	tx.Write(c.Plus(cListHead), uint64(n))
	return price, true
}

// QueryCustomerBill sums the customer's reservation prices; ok=false when
// the customer does not exist.
func (m *Manager) QueryCustomerBill(tx *stm.Tx, id uint64) (bill uint64, ok bool) {
	cust, ok := m.customers.Get(tx, id)
	if !ok {
		return 0, false
	}
	n := core.Addr(tx.Read(core.Addr(cust).Plus(cListHead)))
	for !n.IsNil() {
		bill += tx.Read(n.Plus(lPrice))
		n = core.Addr(tx.Read(n.Plus(lNext)))
	}
	return bill, true
}

// DeleteCustomer cancels all of the customer's reservations (returning
// capacity to the tables) and removes the customer. It reports whether the
// customer existed.
func (m *Manager) DeleteCustomer(tx *stm.Tx, id uint64) bool {
	cust, ok := m.customers.Get(tx, id)
	if !ok {
		return false
	}
	n := core.Addr(tx.Read(core.Addr(cust).Plus(cListHead)))
	for !n.IsNil() {
		kind := int(tx.Read(n.Plus(lKind)))
		rid := tx.Read(n.Plus(lID))
		if rec, ok := m.resources[kind].Get(tx, rid); ok {
			r := core.Addr(rec)
			tx.Write(r.Plus(rNumFree), tx.Read(r.Plus(rNumFree))+1)
			tx.Write(r.Plus(rNumUsed), tx.Read(r.Plus(rNumUsed))-1)
		}
		n = core.Addr(tx.Read(n.Plus(lNext)))
	}
	m.customers.Delete(tx, id)
	return true
}

// CheckTables verifies conservation invariants while quiescent: for every
// resource, numUsed+numFree == numTotal, and the total used capacity equals
// the number of reservation-list entries across all customers. Returns
// false with a description on violation.
func (m *Manager) CheckTables(th core.Thread) (ok bool, detail string) {
	ok = true
	detail = ""
	m.tm.Run(th, func(tx *stm.Tx) {
		ok, detail = true, ""
		var usedTotal uint64
		for k := 0; k < numKinds; k++ {
			m.resources[k].ForEach(tx, func(id, rec uint64) {
				r := core.Addr(rec)
				used := tx.Read(r.Plus(rNumUsed))
				free := tx.Read(r.Plus(rNumFree))
				total := tx.Read(r.Plus(rNumTotal))
				if used+free != total {
					ok = false
					detail = "capacity leak"
				}
				usedTotal += used
			})
		}
		var listed uint64
		m.customers.ForEach(tx, func(id, cust uint64) {
			n := core.Addr(tx.Read(core.Addr(cust).Plus(cListHead)))
			for !n.IsNil() {
				listed++
				n = core.Addr(tx.Read(n.Plus(lNext)))
			}
		})
		if usedTotal != listed {
			ok = false
			detail = "used units do not match reservation lists"
		}
	})
	return ok, detail
}

// Params mirrors STAMP vacation's command line.
type Params struct {
	QueriesPerTx int // -n: queries per transaction
	PercentQuery int // -q: percentage of relations queried (query range)
	PercentUser  int // -u: percentage of user (reservation) transactions
	Relations    int // -r: table size
	Transactions int // -t: transactions per client
}

// PaperParams returns the configuration the paper reports (Figure 8):
// -n4 -q60 -u90 -r16384 -t4096.
func PaperParams() Params {
	return Params{QueriesPerTx: 4, PercentQuery: 60, PercentUser: 90, Relations: 16384, Transactions: 4096}
}

// runner executes one transaction body to commit; the default runner is
// m.tm.RunCached on the client's thread, and the serializability suite
// swaps in a recording runner (see RunTx).
type runner func(fn func(tx *stm.Tx))

// Populate fills the tables as STAMP does: every relation id in [1, r]
// gets an initial capacity and random price in each resource table, and
// every id becomes a customer.
func Populate(m *Manager, th core.Thread, p Params, seed int64) {
	populateWith(m, th, p, seed, func(fn func(tx *stm.Tx)) { m.tm.RunCached(th, fn) })
}

func populateWith(m *Manager, th core.Thread, p Params, seed int64, run runner) {
	rng := rand.New(rand.NewSource(seed))
	// One insert per transaction: populate transactions with huge read
	// sets would trigger NOrec's O(read set) validation on every read
	// (quadratic); STAMP likewise populates with small transactions.
	for id := 1; id <= p.Relations; id++ {
		for k := 0; k < numKinds; k++ {
			price := uint64(rng.Intn(5)*10 + 50)
			kind := k
			run(func(tx *stm.Tx) {
				m.AddResource(tx, th, kind, uint64(id), 100, price)
			})
		}
		run(func(tx *stm.Tx) {
			m.AddCustomer(tx, th, uint64(id))
		})
	}
}

// Client runs one STAMP vacation client: p.Transactions actions with the
// STAMP mix, deterministic in seed. It returns the number of transactions
// executed.
func Client(m *Manager, th core.Thread, p Params, seed int64) int {
	return clientWith(m, th, p, seed, func(fn func(tx *stm.Tx)) { m.tm.RunCached(th, fn) })
}

func clientWith(m *Manager, th core.Thread, p Params, seed int64, run runner) int {
	rng := rand.New(rand.NewSource(seed))
	queryRange := p.Relations * p.PercentQuery / 100
	if queryRange < 1 {
		queryRange = 1
	}
	for i := 0; i < p.Transactions; i++ {
		action := rng.Intn(100)
		switch {
		case action < p.PercentUser:
			makeReservation(m, th, rng, p, queryRange, run)
		case action%2 == 0:
			deleteCustomer(m, rng, queryRange, run)
		default:
			updateTables(m, th, rng, p, queryRange, run)
		}
	}
	return p.Transactions
}

func makeReservation(m *Manager, th core.Thread, rng *rand.Rand, p Params, queryRange int, run runner) {
	numQuery := rng.Intn(p.QueriesPerTx) + 1
	customerID := uint64(rng.Intn(queryRange) + 1)
	kinds := make([]int, numQuery)
	ids := make([]uint64, numQuery)
	for n := 0; n < numQuery; n++ {
		kinds[n] = rng.Intn(numKinds)
		ids[n] = uint64(rng.Intn(queryRange) + 1)
	}
	run(func(tx *stm.Tx) {
		var maxPrice [numKinds]uint64
		var maxID [numKinds]uint64
		for n := 0; n < numQuery; n++ {
			if price, ok := m.QueryPrice(tx, kinds[n], ids[n]); ok && price > maxPrice[kinds[n]] {
				maxPrice[kinds[n]] = price
				maxID[kinds[n]] = ids[n]
			}
		}
		added := false
		for k := 0; k < numKinds; k++ {
			if maxID[k] != 0 {
				if !added {
					m.AddCustomer(tx, th, customerID)
					added = true
				}
				m.Reserve(tx, th, customerID, k, maxID[k])
			}
		}
	})
}

func deleteCustomer(m *Manager, rng *rand.Rand, queryRange int, run runner) {
	customerID := uint64(rng.Intn(queryRange) + 1)
	run(func(tx *stm.Tx) {
		if _, ok := m.QueryCustomerBill(tx, customerID); ok {
			m.DeleteCustomer(tx, customerID)
		}
	})
}

func updateTables(m *Manager, th core.Thread, rng *rand.Rand, p Params, queryRange int, run runner) {
	numUpdate := rng.Intn(p.QueriesPerTx) + 1
	kinds := make([]int, numUpdate)
	ids := make([]uint64, numUpdate)
	adds := make([]bool, numUpdate)
	prices := make([]uint64, numUpdate)
	for n := 0; n < numUpdate; n++ {
		kinds[n] = rng.Intn(numKinds)
		ids[n] = uint64(rng.Intn(queryRange) + 1)
		adds[n] = rng.Intn(2) == 0
		prices[n] = uint64(rng.Intn(5)*10 + 50)
	}
	run(func(tx *stm.Tx) {
		for n := 0; n < numUpdate; n++ {
			if adds[n] {
				m.AddResource(tx, th, kinds[n], ids[n], 100, prices[n])
			} else {
				m.DeleteResource(tx, kinds[n], ids[n], 100)
			}
		}
	})
}
