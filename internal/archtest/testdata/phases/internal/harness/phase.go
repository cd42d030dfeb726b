package harness

type thread interface{ SetActive(on bool) }

func phase(th thread) {
	th.SetActive(true)
	defer th.SetActive(false)
}
