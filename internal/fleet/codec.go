package fleet

import (
	"bytes"
	"fmt"

	"repro/internal/wire"
)

// The membership view codec: views travel between nodes — on probe
// responses, join requests/responses, and gossip pushes — in the
// repository's standard wire container (magic "SFMV"), with the same
// hostile-input discipline as internal/wire itself: declared counts
// and lengths are validated against the bytes actually present before
// any allocation, so a corrupt or adversarial view can never balloon
// memory or panic a receiver. FuzzViewCodec pins this.

const (
	viewMagic   = "SFMV"
	viewVersion = 1
	// viewSection carries the encoded view payload; unknown sections
	// are skipped for forward compatibility, matching the snapshot
	// container's convention.
	viewSection = "view"

	// MaxViewBytes bounds an encoded view a node will read off the
	// network: membership views are tiny (tens of members, short URLs),
	// so anything near the cap is hostile or corrupt.
	MaxViewBytes = 1 << 20

	// maxMemberBytes bounds one member's ID and URL on decode. IDs are
	// shard names, URLs are http bases; 4KB each is beyond generous.
	maxMemberBytes = 4 << 10
)

// EncodeView renders a view in the membership wire format.
func EncodeView(v View) []byte {
	p := &wire.Payload{}
	p.PutUint64(v.Epoch)
	p.PutUint64(uint64(len(v.Members)))
	for _, m := range v.Members {
		p.PutString(m.ID)
		p.PutString(m.URL)
		p.PutBool(m.Status == Leaving)
	}
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, viewMagic, viewVersion)
	if err == nil {
		err = w.Section(viewSection, p.Bytes())
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		// bytes.Buffer writes cannot fail; keep the signature honest
		// anyway.
		panic(fmt.Sprintf("fleet: encoding view: %v", err))
	}
	return buf.Bytes()
}

// DecodeView parses an encoded view. Corrupt, truncated, or hostile
// input returns an error — never a panic, never an allocation larger
// than the input itself.
func DecodeView(data []byte) (View, error) {
	if len(data) > MaxViewBytes {
		return View{}, fmt.Errorf("fleet: encoded view is %d bytes (max %d)", len(data), MaxViewBytes)
	}
	s, err := wire.Walk(data, viewMagic, viewVersion)
	if err != nil {
		return View{}, err
	}
	for s.Next() {
		if s.Tag() == viewSection { // future sections skip cleanly
			return decodeViewPayload(wire.NewPayload(s.Payload()))
		}
	}
	if err := s.Err(); err != nil {
		return View{}, err
	}
	return View{}, fmt.Errorf("fleet: view container has no %q section", viewSection)
}

func decodeViewPayload(p *wire.Payload) (View, error) {
	epoch, err := p.Uint64()
	if err != nil {
		return View{}, err
	}
	count, err := p.Uint64()
	if err != nil {
		return View{}, err
	}
	// Each member needs at least 4+4+1 bytes (two empty strings and a
	// status byte); a declared count beyond that is hostile. Checking
	// before allocating is the wire discipline.
	if count > uint64(p.Remaining())/9 {
		return View{}, fmt.Errorf("fleet: member count %d exceeds remaining payload (%d bytes)", count, p.Remaining())
	}
	v := View{Epoch: epoch}
	if count > 0 {
		v.Members = make([]Member, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		id, err := p.String()
		if err != nil {
			return View{}, err
		}
		url, err := p.String()
		if err != nil {
			return View{}, err
		}
		st, err := p.Bool()
		if err != nil {
			return View{}, err
		}
		if len(id) > maxMemberBytes || len(url) > maxMemberBytes {
			return View{}, fmt.Errorf("fleet: member %d field exceeds %d bytes", i, maxMemberBytes)
		}
		if id == "" {
			return View{}, fmt.Errorf("fleet: member %d has an empty ID", i)
		}
		status := Alive
		if st {
			status = Leaving
		}
		v.Members = append(v.Members, Member{ID: id, URL: url, Status: status})
	}
	v.normalize()
	return v, nil
}
