//go:build memtagcheck

package core

// Checked arms every debug guard of the memtagcheck build (see
// checked_off.go for what each guards); misuse panics instead of going
// unnoticed.
const Checked = true
