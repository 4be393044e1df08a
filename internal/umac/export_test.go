package umac

import "fmt"

// The package's own tests drive UMAC through these: the RFC 4418 vectors
// are byte-slice tags under byte-slice nonces, for UMAC-32 and UMAC-64.

// New expands a 16-byte user key into UMAC subkeys.
func New(key []byte) (*UMAC, error) {
	u := new(UMAC)
	if err := u.SetKey(key); err != nil {
		return nil, err
	}
	return u, nil
}

// Tag32 computes the 4-byte UMAC-32 tag of msg under the given 8-byte
// nonce.
func (u *UMAC) Tag32(msg, nonce []byte) ([4]byte, error) {
	var s Scratch
	return u.tag32(&s, msg, nonce)
}

// Tag64 computes the 8-byte UMAC-64 tag of msg (two Toeplitz iterations).
func (u *UMAC) Tag64(msg, nonce []byte) ([8]byte, error) {
	var tag [8]byte
	if len(msg) > MaxMessage {
		return tag, ErrMessageTooLong
	}
	if len(nonce) != NonceSize {
		return tag, fmt.Errorf("umac: nonce must be %d bytes, got %d", NonceSize, len(nonce))
	}
	h1 := u.uhash(&u.iters[0], msg)
	h2 := u.uhash(&u.iters[1], msg)
	var s Scratch
	pad := u.pdfBytes(&s, nonce, 8)
	for i := 0; i < 4; i++ {
		tag[i] = h1[i] ^ pad[i]
		tag[4+i] = h2[i] ^ pad[4+i]
	}
	return tag, nil
}

// Tag32Uint is Tag32UintScratch with a Scratch of its own.
func (u *UMAC) Tag32Uint(msg []byte, nonce uint64) (uint32, error) {
	var s Scratch
	return u.Tag32UintScratch(&s, msg, nonce)
}
