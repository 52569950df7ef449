package dataset

// Table V of the paper: the seven active-learning test configurations.
// Sizes are the paper's; use Config.Scale for CPU-sized runs.

// MNIST: balanced, 10 classes, spectral embedding of dimension 20.
func MNIST() Config {
	return Config{Name: "MNIST", Classes: 10, Dim: 20, InitPerClass: 1,
		PoolSize: 3000, EvalSize: 60000, Rounds: 3, Budget: 10}
}

// CIFAR10: balanced, SimCLR+spectral embedding of dimension 20.
func CIFAR10() Config {
	return Config{Name: "CIFAR-10", Classes: 10, Dim: 20, InitPerClass: 1,
		PoolSize: 3000, EvalSize: 50000, Rounds: 3, Budget: 10}
}

// ImbCIFAR10: CIFAR-10 with a 10:1 max class-size ratio in the pool.
func ImbCIFAR10() Config {
	c := CIFAR10()
	c.Name = "imb-CIFAR-10"
	c.ImbalanceRatio = 10
	return c
}

// ImageNet50: 50 random ImageNet classes, DINOv2 features (d = 50).
func ImageNet50() Config {
	return Config{Name: "ImageNet-50", Classes: 50, Dim: 50, InitPerClass: 1,
		PoolSize: 5000, EvalSize: 64273, Rounds: 6, Budget: 50}
}

// ImbImageNet50: ImageNet-50 with an 8:1 max class-size ratio.
func ImbImageNet50() Config {
	c := ImageNet50()
	c.Name = "imb-ImageNet-50"
	c.ImbalanceRatio = 8
	return c
}

// Caltech101: imbalanced (10:1), 101 classes, DINOv2 features (d = 100).
func Caltech101() Config {
	return Config{Name: "Caltech-101", Classes: 101, Dim: 100, InitPerClass: 1,
		PoolSize: 1715, EvalSize: 8677, Rounds: 6, Budget: 101,
		ImbalanceRatio: 10}
}

// ImageNet1k: balanced, 1000 classes, DINOv2 features (d = 383), two
// initial labels per class.
func ImageNet1k() Config {
	return Config{Name: "ImageNet-1k", Classes: 1000, Dim: 383, InitPerClass: 2,
		PoolSize: 50000, EvalSize: 1281167, Rounds: 5, Budget: 200}
}

// TableV returns all seven configurations in paper order.
func TableV() []Config {
	return []Config{
		MNIST(), CIFAR10(), ImbCIFAR10(),
		ImageNet50(), ImbImageNet50(),
		Caltech101(), ImageNet1k(),
	}
}
