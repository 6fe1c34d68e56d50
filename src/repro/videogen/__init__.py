"""Synthetic video substrate.

The paper evaluates on real videos (Detrac, MOT16) and VisualRoad
renders; neither pixels nor the originals are available offline, and
the query layers only ever see the structured relation
``VR(fid, id, class)``.  This package simulates the *scene* — objects
with arrival processes, dwell times, motion, bounding boxes and
occlusion dropouts, under static or moving cameras — which the
``repro.detect_track`` substrate then turns into VR via a synthetic
detector and tracker, reproducing the stream statistics of the paper's
Table 6 per dataset profile.
"""
