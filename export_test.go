package lockfreetrie

// SetTestHookLogged installs f to run between each durable ApplyBatch's
// log append and its apply; nil removes it.
func SetTestHookLogged(f func()) { testHookLogged = f }
