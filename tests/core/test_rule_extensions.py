"""Tests for the shape of the rule set: ``ExpertRuleSet`` holds exactly the
rules of ``RULE_NAMES`` (Sec. III-D), so its fusion weights must have one
entry per rule."""

import numpy as np
import pytest

from repro.core.rules import RULE_NAMES, ExpertRuleSet
from repro.text import SentenceEncoder


class TestExtraRules:
    def test_weights_shape_follows_rules(self):
        with pytest.raises(ValueError):
            ExpertRuleSet(SentenceEncoder(dim=16),
                          weights=np.ones(len(RULE_NAMES) + 1)
                          / (len(RULE_NAMES) + 1))
        with pytest.raises(ValueError):
            ExpertRuleSet(SentenceEncoder(dim=16), weights=np.ones(3) / 3)
        rules = ExpertRuleSet(SentenceEncoder(dim=16),
                              weights=np.ones(len(RULE_NAMES)) / len(RULE_NAMES))
        assert rules.weights.shape == (len(RULE_NAMES),)
