// Package aead provides the authenticated-encryption scheme AE used by
// SecAgg (paper Fig. 5): an IND-CPA and INT-CTXT secure scheme that clients
// use to encrypt Shamir shares for one another over the server-mediated
// channel. The server relays ciphertexts it cannot read or undetectably
// modify.
//
// The instantiation is AES-256-GCM with a random 12-byte nonce prepended to
// each ciphertext. Associated data binds the ciphertext to its routing
// metadata (sender u, receiver v, round), preventing the mix-and-match
// replay the SecAgg security proof excludes.
//
// Seal and Open build the AES key schedule and GCM instance per call.
// Callers that seal or open many envelopes under one key (a LightSecAgg
// session seals one coded share per peer per round) build it once with
// NewCipher, cache it, and use SealInPlace and OpenTo, which also let the
// caller own every buffer: sealing encrypts in place behind NonceSize
// bytes of headroom and opening appends to a caller-supplied buffer.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key length in bytes (AES-256).
const KeySize = 32

// NonceSize is the GCM nonce length in bytes.
const NonceSize = 12

// TagSize is the GCM authentication tag length in bytes.
const TagSize = 16

// Overhead is the ciphertext expansion: nonce + GCM tag.
const Overhead = NonceSize + TagSize

// ErrDecrypt is returned on any authentication or decryption failure; the
// cause is deliberately not distinguished (a decryption oracle distinction
// would weaken INT-CTXT in practice).
var ErrDecrypt = errors.New("aead: decryption failed")

// NewCipher returns the AES-256-GCM instance for key. It holds the
// expanded key schedule and is safe for concurrent use, so one instance
// serves every envelope under that key.
func NewCipher(key [KeySize]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("aead: %w", err)
	}
	g, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("aead: %w", err)
	}
	return g, nil
}

// Seal encrypts plaintext under key, binding associated data ad. The nonce
// is drawn from rand and prepended to the returned ciphertext.
func Seal(key [KeySize]byte, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	g, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, NonceSize+len(plaintext), NonceSize+len(plaintext)+TagSize)
	copy(buf[NonceSize:], plaintext)
	return SealInPlace(g, rand, buf, ad)
}

// SealInPlace seals the plaintext buf[NonceSize:] under g: it draws the
// nonce from rand into buf[:NonceSize], encrypts the plaintext over
// itself and appends the tag, returning buf[:len(buf)+TagSize] — the
// same nonce‖ciphertext‖tag layout Seal returns. With TagSize bytes of
// spare capacity in buf nothing is allocated.
func SealInPlace(g cipher.AEAD, rand io.Reader, buf, ad []byte) ([]byte, error) {
	if len(buf) < NonceSize {
		return nil, fmt.Errorf("aead: %d-byte buffer has no nonce headroom", len(buf))
	}
	nonce := buf[:NonceSize]
	if _, err := io.ReadFull(rand, nonce); err != nil {
		return nil, fmt.Errorf("aead: reading nonce: %w", err)
	}
	return g.Seal(nonce, nonce, buf[NonceSize:], ad), nil
}

// Open decrypts a ciphertext produced by Seal, verifying the associated
// data. It returns ErrDecrypt on any failure.
func Open(key [KeySize]byte, ciphertext, ad []byte) ([]byte, error) {
	g, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return OpenTo(g, nil, ciphertext, ad)
}

// OpenTo decrypts a Seal/SealInPlace ciphertext under g, verifying the
// associated data, and appends the plaintext to dst; with enough spare
// capacity in dst nothing is allocated. It returns ErrDecrypt on any
// failure.
func OpenTo(g cipher.AEAD, dst, ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrDecrypt
	}
	pt, err := g.Open(dst, ciphertext[:NonceSize], ciphertext[NonceSize:], ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
