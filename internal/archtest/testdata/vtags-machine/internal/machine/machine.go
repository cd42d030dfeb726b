package machine
