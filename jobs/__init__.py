"""spark-submit job entrypoints: the evaluation's Spark layer and the VR export."""
