package population

import (
	"sync"

	"fpdyn/internal/canvas"
)

// renderCache memoizes canvas and GPU renders for one simulation run.
// Both images are pure functions of their parameters, and a world has
// far fewer distinct rendering stacks than visits (a 2,000-user world
// renders 12,260 images from about 100 Params and 60 GPUInfo values),
// so each is rasterized and hashed once per run. One Simulate,
// SimulateSpill or simulateSharded call owns the cache and hands it to
// every shard Dataset it creates; it is never package-level state, so
// each run pays for its own misses. Lookups run concurrently from the
// shard workers.
type renderCache struct {
	mu     sync.RWMutex
	canvas map[canvas.Params]renderedImage
	gpu    map[canvas.GPUInfo]renderedImage
}

// renderedImage is one cached render and its fingerprint hash. The
// image is shared by every record and image store that references it
// and is never modified.
type renderedImage struct {
	img  *canvas.Image
	hash string
}

func newRenderCache() *renderCache {
	return &renderCache{
		canvas: make(map[canvas.Params]renderedImage),
		gpu:    make(map[canvas.GPUInfo]renderedImage),
	}
}

// canvasImage returns the rendered canvas for p and its hash.
func (c *renderCache) canvasImage(p canvas.Params) renderedImage {
	return cached(c, c.canvas, p, canvas.Render)
}

// gpuImage returns the rendered GPU scene for g and its hash.
func (c *renderCache) gpuImage(g canvas.GPUInfo) renderedImage {
	return cached(c, c.gpu, g, canvas.RenderGPU)
}

// cached looks key up in m under the read lock and renders it on a
// miss. Concurrent misses on one key may both render; the first store
// wins and the images are identical either way.
func cached[K comparable](c *renderCache, m map[K]renderedImage, key K, render func(K) *canvas.Image) renderedImage {
	c.mu.RLock()
	r, ok := m[key]
	c.mu.RUnlock()
	if ok {
		return r
	}
	img := render(key)
	r = renderedImage{img: img, hash: img.Hash()}
	c.mu.Lock()
	if prev, ok := m[key]; ok {
		r = prev
	} else {
		m[key] = r
	}
	c.mu.Unlock()
	return r
}
