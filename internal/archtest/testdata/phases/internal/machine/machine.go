package machine

type Thread struct{ on bool }

func (t *Thread) SetActive(on bool) { t.on = on }

// The backend enrols its own threads: not convicted.
func (t *Thread) enrol() { t.SetActive(true) }
