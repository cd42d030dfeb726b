package core

// The home of the capabilities: not convicted.
type LaxClocked interface{ SetActive(on bool) }
