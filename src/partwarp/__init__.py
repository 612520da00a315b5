"""Parts-based shape warping for one-shot placement transfer."""
