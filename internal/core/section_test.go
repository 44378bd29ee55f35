package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"unitp/internal/cryptoutil"
)

// refAuditSection is the audit section as the snapshot encoded it before
// the log was held encoded: the entry count, then each entry's wire form
// as one length-prefixed field, encoded from the entry structs.
func refAuditSection(entries []AuditEntry) []byte {
	b := cryptoutil.NewBuffer(0)
	b.PutUint32(uint32(len(entries)))
	for i := range entries {
		start := b.BeginField()
		entries[i].put(b)
		b.EndField(start)
	}
	return b.Bytes()
}

// refHistorySection is the history section as the snapshot encoded it
// from a []Transaction history.
func refHistorySection(history []Transaction) []byte {
	b := cryptoutil.NewBuffer(0)
	b.PutUint32(uint32(len(history)))
	for i := range history {
		putTxField(b, &history[i])
	}
	return b.Bytes()
}

// chunkShape records where each of a section's chunks lives and how
// large it may grow, to check no chunk is ever regrown or moved.
type chunkShape struct {
	data *byte
	cap  int
}

func shapeOf(s *section) []chunkShape {
	out := make([]chunkShape, len(s.chunks))
	for i, c := range s.chunks {
		out[i] = chunkShape{unsafe.SliceData(c), cap(c)}
	}
	return out
}

// checkNotRegrown fails if a chunk present in before moved or changed
// capacity in s.
func checkNotRegrown(t *testing.T, before []chunkShape, s *section) {
	t.Helper()
	after := shapeOf(s)
	if len(after) < len(before) {
		t.Fatalf("section lost chunks: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("chunk %d regrown: %+v -> %+v", i, before[i], after[i])
		}
	}
}

// freeInLast is the spare capacity of a section's last chunk (0 before
// the first item).
func freeInLast(s *section) int {
	if len(s.chunks) == 0 {
		return 0
	}
	last := s.chunks[len(s.chunks)-1]
	return cap(last) - len(last)
}

func randBytes(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

func randString(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// randAuditEntry draws an entry without chain fields: mostly small,
// sometimes with evidence larger than a chunk, and sometimes sized to
// end exactly at the end of the log's last chunk.
func randAuditEntry(rng *rand.Rand, s *section) AuditEntry {
	e := AuditEntry{
		Kind:      AuditKind(rng.Intn(5)),
		Note:      randString(rng, rng.Intn(40)),
		At:        time.Unix(0, rng.Int63()),
		TxID:      randString(rng, rng.Intn(24)),
		Confirmed: rng.Intn(2) == 0,
	}
	rng.Read(e.TxDigest[:])
	rng.Read(e.Nonce[:])
	switch r := rng.Intn(10); {
	case r == 0:
		e.Evidence = randBytes(rng, sectionChunk+rng.Intn(sectionChunk))
	case r <= 2:
		if n := freeInLast(s) - 4 - e.size(); n >= 0 {
			e.Evidence = randBytes(rng, n)
		}
	case r <= 6:
		e.Evidence = randBytes(rng, rng.Intn(400))
	}
	return e
}

// TestAuditLogMatchesModel appends random entries to an AuditLog and to
// a []AuditEntry model: the log's snapshot parts must equal the section
// encoded from the model's structs, Entries must return the model, no
// chunk may regrow, and a tampered Restore must be refused without
// changing the log.
func TestAuditLogMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	log := NewAuditLog()
	var model []AuditEntry
	var head cryptoutil.Digest
	boundaries, large := 0, 0
	for i := 0; i < 600; i++ {
		e := randAuditEntry(rng, &log.entries)
		before := shapeOf(&log.entries)
		fitsExactly := len(log.entries.chunks) > 0 && 4+e.size() == freeInLast(&log.entries)
		got := log.Append(e)
		checkNotRegrown(t, before, &log.entries)
		if fitsExactly {
			boundaries++
			if freeInLast(&log.entries) != 0 || len(log.entries.chunks) != len(before) {
				t.Fatalf("entry %d sized to the chunk's end did not fill it", i)
			}
		}
		if len(e.Evidence) > sectionChunk {
			large++
		}
		e.Seq, e.PrevChain = uint64(i), head
		e.Chain = e.computeChain(head)
		head = e.Chain
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("Append %d returned %+v, want %+v", i, got, e)
		}
		model = append(model, e)
	}
	if boundaries == 0 || large == 0 || len(log.entries.chunks) < 3 {
		t.Fatalf("draw too tame: %d boundary entries, %d large, %d chunks", boundaries, large, len(log.entries.chunks))
	}

	parts := log.entries.parts()
	if !bytes.Equal(bytes.Join(parts, nil), refAuditSection(model)) {
		t.Fatal("audit section parts differ from the struct encoding")
	}
	if !reflect.DeepEqual(log.Entries(), model) || log.Len() != len(model) || log.Head() != head {
		t.Fatal("Entries/Len/Head differ from the model")
	}
	if err := VerifyAuditChain(log.Entries()); err != nil {
		t.Fatal(err)
	}

	// A rebuilt log takes every entry back through Restore.
	rebuilt := NewAuditLog()
	for _, e := range model {
		if err := rebuilt.Restore(e); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rebuilt.Entries(), model) || rebuilt.Head() != head {
		t.Fatal("restored log differs from the model")
	}

	// Tampered entries are refused and leave the log as it was.
	next := randAuditEntry(rng, &log.entries)
	next.Seq, next.PrevChain = uint64(len(model)), head
	next.Chain = next.computeChain(head)
	want := bytes.Join(parts, nil)
	for name, tamper := range map[string]func(e *AuditEntry){
		"seq":      func(e *AuditEntry) { e.Seq++ },
		"prev":     func(e *AuditEntry) { e.PrevChain[0] ^= 1 },
		"chain":    func(e *AuditEntry) { e.Chain[19] ^= 1 },
		"note":     func(e *AuditEntry) { e.Note += "!" },
		"evidence": func(e *AuditEntry) { e.Evidence = append(e.Evidence, 0) },
	} {
		bad := next
		bad.Evidence = bytes.Clone(next.Evidence)
		tamper(&bad)
		if err := log.Restore(bad); !errors.Is(err, ErrChainBroken) {
			t.Fatalf("%s: tampered Restore = %v, want ErrChainBroken", name, err)
		}
		now := log.entries.parts()
		if log.Len() != len(model) || log.Head() != head || !bytes.Equal(bytes.Join(now, nil), want) {
			t.Fatalf("%s: refused Restore changed the log", name)
		}
	}
	if err := log.Restore(next); err != nil {
		t.Fatalf("untampered Restore refused: %v", err)
	}
}

// TestLedgerHistoryMatchesModel applies random transfers to a Ledger
// and to a []Transaction model: the history section's parts must equal
// the section encoded from the model, History must return the model,
// no chunk may regrow, and a snapshot round trip must keep both and the
// applied set.
func TestLedgerHistoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := NewProvider(ProviderConfig{Name: "history-model"})
	l := p.Ledger()
	names := []string{"alice", "bob", "carol", "dave"}
	for _, name := range names {
		if err := l.CreateAccount(name, 1<<50); err != nil {
			t.Fatal(err)
		}
	}
	var model []Transaction
	boundaries, large := 0, 0
	for i := 0; i < 2500; i++ {
		from := rng.Intn(len(names))
		to := (from + 1 + rng.Intn(len(names)-1)) % len(names)
		tx := Transaction{
			ID: randString(rng, 4+rng.Intn(12)), From: names[from], To: names[to],
			AmountCents: 1 + rng.Int63n(1_000), Currency: "EUR", Memo: randString(rng, rng.Intn(30)),
		}
		switch r := rng.Intn(20); {
		case r == 0:
			tx.Memo = randString(rng, sectionChunk+rng.Intn(1000))
		case r <= 3:
			memo := tx.Memo
			tx.Memo = ""
			if n := freeInLast(&l.history) - 4 - tx.size(); n >= 0 {
				tx.Memo = randString(rng, n)
			} else {
				tx.Memo = memo
			}
		}
		before := shapeOf(&l.history)
		fitsExactly := len(l.history.chunks) > 0 && 4+tx.size() == freeInLast(&l.history)
		var emitted []byte
		err := l.apply(&tx, func(field []byte) { emitted = bytes.Clone(field) })
		if errors.Is(err, ErrDuplicateTransaction) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkNotRegrown(t, before, &l.history)
		if fitsExactly {
			boundaries++
			if freeInLast(&l.history) != 0 || len(l.history.chunks) != len(before) {
				t.Fatalf("transaction %d sized to the chunk's end did not fill it", i)
			}
		}
		if len(tx.Memo) > sectionChunk {
			large++
		}
		ref := cryptoutil.NewBuffer(0)
		putTxField(ref, &tx)
		if !bytes.Equal(emitted, ref.Bytes()) {
			t.Fatalf("transaction %d: emitted field differs from its encoding", i)
		}
		model = append(model, tx)
	}
	if boundaries == 0 || large == 0 || len(l.history.chunks) < 3 {
		t.Fatalf("draw too tame: %d boundary transactions, %d large, %d chunks", boundaries, large, len(l.history.chunks))
	}

	parts := l.history.parts()
	if !bytes.Equal(bytes.Join(parts, nil), refHistorySection(model)) {
		t.Fatal("history section parts differ from the struct encoding")
	}
	if !reflect.DeepEqual(l.History(), model) {
		t.Fatal("History differs from the model")
	}

	q := NewProvider(ProviderConfig{Name: "history-model-restored"})
	if err := q.loadState(p.encodeState()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Ledger().History(), model) {
		t.Fatal("restored History differs from the model")
	}
	if err := q.Ledger().Apply(&model[len(model)/2]); !errors.Is(err, ErrDuplicateTransaction) {
		t.Fatalf("restored ledger re-applied an executed transaction: %v", err)
	}
	if !bytes.Equal(q.encodeState(), p.encodeState()) {
		t.Fatal("restored provider encodes a different snapshot")
	}
}

// TestCreateAccountNameBound checks a name longer than a length-prefixed
// field may hold is refused, and a name exactly at the bound survives a
// snapshot round trip.
func TestCreateAccountNameBound(t *testing.T) {
	p := NewProvider(ProviderConfig{Name: "name-bound"})
	if err := p.Ledger().CreateAccount(strings.Repeat("x", cryptoutil.MaxFieldLen+1), 5); err == nil {
		t.Fatal("over-bound account name accepted")
	}
	name := strings.Repeat("y", cryptoutil.MaxFieldLen)
	if err := p.Ledger().CreateAccount(name, 7); err != nil {
		t.Fatal(err)
	}
	q := NewProvider(ProviderConfig{Name: "name-bound-restored"})
	if err := q.loadState(p.encodeState()); err != nil {
		t.Fatalf("snapshot with a name at the bound refused: %v", err)
	}
	if bal, err := q.Ledger().Balance(name); err != nil || bal != 7 {
		t.Fatalf("restored Balance = %d, %v", bal, err)
	}
}

// TestSectionEmptyAndLoad checks an empty section encodes as a zero
// count and a loaded section keeps appending after the loaded bytes.
func TestSectionEmptyAndLoad(t *testing.T) {
	var s section
	if got := bytes.Join(s.parts(), nil); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty section encodes as %x", got)
	}
	s.addRaw([]byte("one"))
	raw := bytes.Join(s.parts(), nil)
	var loaded section
	loaded.extend(raw[4:], 1)
	loaded.addRaw([]byte("two"))
	s.addRaw([]byte("two"))
	if !bytes.Equal(bytes.Join(loaded.parts(), nil), bytes.Join(s.parts(), nil)) {
		t.Fatal("loaded section diverged after an append")
	}
	var items []string
	loaded.each(func(body []byte) { items = append(items, string(body)) })
	if strings.Join(items, ",") != "one,two" {
		t.Fatalf("items = %v", items)
	}
}
